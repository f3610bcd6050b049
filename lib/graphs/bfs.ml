let unreachable = max_int

(* The one BFS kernel, on a flat int queue: from [src] (already
   labelled), give every node it reaches whose label is still [unseen]
   its BFS parent's label plus [step].  [queue] needs room for every
   node of the component. *)
let sweep g ~queue ~label ~unseen ~step src =
  queue.(0) <- src;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let u = queue.(!head) in
    incr head;
    let nbrs = Graph.neighbors g u in
    let next = label.(u) + step in
    for i = 0 to Array.length nbrs - 1 do
      let v = nbrs.(i) in
      if label.(v) = unseen then begin
        label.(v) <- next;
        queue.(!tail) <- v;
        incr tail
      end
    done
  done

let distances g ~src =
  let n = Graph.n g in
  let dist = Array.make n unreachable in
  dist.(src) <- 0;
  sweep g ~queue:(Array.make n 0) ~label:dist ~unseen:unreachable ~step:1 src;
  dist

let distance g u v = (distances g ~src:u).(v)

let eccentricity g v =
  Array.fold_left
    (fun acc d -> if d = unreachable then acc else max acc d)
    0
    (distances g ~src:v)

let diameter g =
  let best = ref 0 in
  for v = 0 to Graph.n g - 1 do
    best := max !best (eccentricity g v)
  done;
  !best

(* Double sweep: BFS from node 0 finds a farthest node [u]; ecc(u) is a
   lower bound on the diameter, exact on trees and grids. *)
let pseudo_diameter g =
  let n = Graph.n g in
  if n = 0 then 0
  else begin
    let dist = distances g ~src:0 in
    let far = ref 0 in
    for v = 1 to n - 1 do
      if dist.(v) <> unreachable && dist.(v) > dist.(!far) then far := v
    done;
    eccentricity g !far
  end

let components g =
  let n = Graph.n g in
  let comp = Array.make n (-1) in
  let queue = Array.make n 0 in
  let next = ref 0 in
  for src = 0 to n - 1 do
    if comp.(src) = -1 then begin
      comp.(src) <- !next;
      sweep g ~queue ~label:comp ~unseen:(-1) ~step:0 src;
      incr next
    end
  done;
  comp

let component_count g =
  let comp = components g in
  Array.fold_left (fun acc id -> max acc (id + 1)) 0 comp

let is_connected g = Graph.n g <= 1 || component_count g = 1
