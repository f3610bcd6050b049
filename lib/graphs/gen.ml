let line n =
  Graph.of_edges ~n (List.init (max 0 (n - 1)) (fun i -> (i, i + 1)))
[@@mmb.alloc_ok "graph construction, init-phase"]

let ring n =
  if n < 3 then invalid_arg "Gen.ring: need n >= 3";
  Graph.of_edges ~n ((n - 1, 0) :: List.init (n - 1) (fun i -> (i, i + 1)))
[@@mmb.alloc_ok "graph construction, init-phase"]

let star n =
  if n < 1 then invalid_arg "Gen.star: need n >= 1";
  Graph.of_edges ~n (List.init (n - 1) (fun i -> (0, i + 1)))
[@@mmb.alloc_ok "graph construction, init-phase"]

let complete n =
  let edges = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      edges := (u, v) :: !edges
    done
  done;
  Graph.of_edges ~n !edges

(* Rows come out sorted (up, left, right, down), so no edge list and no
   sort: the million-node runs build their grid here. *)
let grid ~rows ~cols =
  if rows < 1 || cols < 1 then invalid_arg "Gen.grid: need positive dims";
  Graph.of_rows ~n:(rows * cols) (fun v ->
      let r = v / cols and c = v mod cols in
      let up = r > 0 and left = c > 0 in
      let right = c + 1 < cols and down = r + 1 < rows in
      let row =
        Array.make
          (Bool.to_int up + Bool.to_int left + Bool.to_int right
         + Bool.to_int down)
          0
      in
      let i = ref 0 in
      if up then begin row.(!i) <- v - cols; incr i end;
      if left then begin row.(!i) <- v - 1; incr i end;
      if right then begin row.(!i) <- v + 1; incr i end;
      if down then row.(!i) <- v + cols;
      row)

let balanced_tree ~arity ~depth =
  if arity < 1 || depth < 0 then invalid_arg "Gen.balanced_tree";
  (* Number of nodes: sum of arity^i for i in 0..depth. *)
  let rec count acc pow i = if i > depth then acc else count (acc + pow) (pow * arity) (i + 1) in
  let n = count 0 1 0 in
  let edges = ref [] in
  for v = 1 to n - 1 do
    edges := ((v - 1) / arity, v) :: !edges
  done;
  Graph.of_edges ~n !edges

let torus ~rows ~cols =
  if rows < 3 || cols < 3 then invalid_arg "Gen.torus: need dims >= 3";
  let idx r c = (r * cols) + c in
  let edges = ref [] in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      edges := (idx r c, idx r ((c + 1) mod cols)) :: !edges;
      edges := (idx r c, idx ((r + 1) mod rows) c) :: !edges
    done
  done;
  Graph.of_edges ~n:(rows * cols) !edges

let hypercube ~dim =
  if dim < 1 || dim > 20 then invalid_arg "Gen.hypercube: need 1 <= dim <= 20";
  let n = 1 lsl dim in
  let edges = ref [] in
  for v = 0 to n - 1 do
    for b = 0 to dim - 1 do
      let u = v lxor (1 lsl b) in
      if v < u then edges := (v, u) :: !edges
    done
  done;
  Graph.of_edges ~n !edges

let gnp rng ~n ~p =
  let edges = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if Dsim.Rng.bernoulli rng ~p then edges := (u, v) :: !edges
    done
  done;
  Graph.of_edges ~n !edges

let geometric_of_points points ~radius =
  let n = Array.length points in
  let r2 = radius *. radius in
  let edges = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if Geometry.dist2 points.(u) points.(v) <= r2 then
        edges := (u, v) :: !edges
    done
  done;
  Graph.of_edges ~n !edges

let random_geometric rng ~n ~width ~height ~radius =
  let points =
    Array.init n (fun _ -> Geometry.random_in_box rng ~width ~height)
  in
  (geometric_of_points points ~radius, points)

let random_connected_geometric rng ~n ~width ~height ~radius ~max_tries =
  let rec attempt tries =
    if tries = 0 then
      failwith "Gen.random_connected_geometric: no connected sample found"
    else begin
      let g, pts = random_geometric rng ~n ~width ~height ~radius in
      if Bfs.is_connected g then (g, pts) else attempt (tries - 1)
    end
  in
  attempt max_tries
