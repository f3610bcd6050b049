type t = { n : int; adj : int array array; m : int }

let check_endpoint n v =
  if v < 0 || v >= n then
    invalid_arg (Printf.sprintf "Graph: node %d out of range [0,%d)" v n)

(* Sort a row only when it is out of order, then drop duplicates in
   place; the row is copied once more only when a duplicate was found. *)
let finish_row a =
  let len = Array.length a in
  let sorted = ref true in
  for i = 1 to len - 1 do
    if a.(i) < a.(i - 1) then sorted := false
  done;
  if not !sorted then Array.sort Int.compare a;
  let w = ref (min len 1) in
  for i = 1 to len - 1 do
    if a.(i) <> a.(!w - 1) then begin
      a.(!w) <- a.(i);
      incr w
    end
  done;
  if !w = len then a else Array.sub a 0 !w

let of_finished_rows n adj =
  for u = 0 to n - 1 do
    adj.(u) <- finish_row adj.(u)
  done;
  let m = Array.fold_left (fun acc a -> acc + Array.length a) 0 adj / 2 in
  { n; adj; m }

(* Two passes over the list: count degrees, then fill exact-size rows. *)
let of_edges ~n edges =
  if n < 0 then invalid_arg "Graph.of_edges: negative n";
  let deg = Array.make n 0 in
  List.iter
    (fun (u, v) ->
      check_endpoint n u;
      check_endpoint n v;
      if u = v then invalid_arg "Graph.of_edges: self-loop";
      deg.(u) <- deg.(u) + 1;
      deg.(v) <- deg.(v) + 1)
    edges;
  let adj = Array.map (fun d -> Array.make d 0) deg in
  Array.fill deg 0 n 0;
  List.iter
    (fun (u, v) ->
      adj.(u).(deg.(u)) <- v;
      deg.(u) <- deg.(u) + 1;
      adj.(v).(deg.(v)) <- u;
      deg.(v) <- deg.(v) + 1)
    edges;
  of_finished_rows n adj

let of_rows ~n f =
  if n < 0 then invalid_arg "Graph.of_rows: negative n";
  let adj = Array.init n f in
  let t = of_finished_rows n adj in
  (* Symmetric iff, visiting [u] in ascending order, [u] is always the
     next unmatched entry of every (sorted) row [v] it lists. *)
  let next = Array.make n 0 in
  for u = 0 to n - 1 do
    let row = adj.(u) in
    for i = 0 to Array.length row - 1 do
      let v = row.(i) in
      check_endpoint n v;
      if v = u then invalid_arg "Graph.of_rows: self-loop";
      let j = next.(v) in
      if j >= Array.length adj.(v) || adj.(v).(j) <> u then
        invalid_arg "Graph.of_rows: rows are not symmetric";
      next.(v) <- j + 1
    done
  done;
  t

let empty ~n = of_edges ~n []

let n t = t.n
let m t = t.m

let neighbors t v =
  check_endpoint t.n v;
  t.adj.(v)

let degree t v = Array.length (neighbors t v)

let mem_edge t u v =
  check_endpoint t.n u;
  check_endpoint t.n v;
  if u = v then false
  else begin
    let a = t.adj.(u) in
    let rec search lo hi =
      if lo >= hi then false
      else begin
        let mid = (lo + hi) / 2 in
        if a.(mid) = v then true
        else if a.(mid) < v then search (mid + 1) hi
        else search lo mid
      end
    in
    search 0 (Array.length a)
  end

let fold_edges f t acc =
  let acc = ref acc in
  for u = 0 to t.n - 1 do
    let row = t.adj.(u) in
    for i = 0 to Array.length row - 1 do
      let v = row.(i) in
      if u < v then acc := f u v !acc
    done
  done;
  !acc

let edges t = List.rev (fold_edges (fun u v acc -> (u, v) :: acc) t [])

let iter_nodes t f =
  for v = 0 to t.n - 1 do
    f v
  done

let union g h =
  if g.n <> h.n then invalid_arg "Graph.union: node-count mismatch";
  of_edges ~n:g.n (edges g @ edges h)

let is_subgraph ~sub ~super =
  sub.n = super.n
  && fold_edges (fun u v ok -> ok && mem_edge super u v) sub true

let max_degree t = Array.fold_left (fun acc a -> max acc (Array.length a)) 0 t.adj

let pp ppf t =
  Fmt.pf ppf "graph(n=%d, m=%d)" t.n t.m
