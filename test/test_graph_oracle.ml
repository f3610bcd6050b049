(* Graph-constructor oracle: the array-built [Graph.of_edges], [Gen.grid]
   (rows through [Graph.of_rows]) and the flat-queue BFS kernel against
   reference copies of the list- and Queue-based originals, on generated
   graphs; plus [Graph.of_rows]'s rejection of malformed rows. *)

(* --- References (the original list-based code, verbatim) --- *)

module Ref = struct
  type t = { n : int; adj : int array array; m : int }

  let check_endpoint n v =
    if v < 0 || v >= n then
      invalid_arg (Printf.sprintf "Graph: node %d out of range [0,%d)" v n)

  let dedup_sorted a =
    (* [a] sorted; returns a fresh array without consecutive duplicates. *)
    let len = Array.length a in
    if len = 0 then [||]
    else begin
      let out = ref [ a.(0) ] and count = ref 1 in
      for i = 1 to len - 1 do
        if a.(i) <> a.(i - 1) then begin
          out := a.(i) :: !out;
          incr count
        end
      done;
      let n = !count in
      let res = Array.make n 0 in
      List.iteri (fun i v -> res.(n - 1 - i) <- v) !out;
      res
    end

  let of_edges ~n edges =
    if n < 0 then invalid_arg "Graph.of_edges: negative n";
    let buckets = Array.make n [] in
    List.iter
      (fun (u, v) ->
        check_endpoint n u;
        check_endpoint n v;
        if u = v then invalid_arg "Graph.of_edges: self-loop";
        buckets.(u) <- v :: buckets.(u);
        buckets.(v) <- u :: buckets.(v))
      edges;
    let adj =
      Array.map
        (fun l ->
          let a = Array.of_list l in
          Array.sort Int.compare a;
          dedup_sorted a)
        buckets
    in
    let m = Array.fold_left (fun acc a -> acc + Array.length a) 0 adj / 2 in
    { n; adj; m }

  let grid ~rows ~cols =
    if rows < 1 || cols < 1 then invalid_arg "Gen.grid: need positive dims";
    let idx r c = (r * cols) + c in
    let edges = ref [] in
    for r = 0 to rows - 1 do
      for c = 0 to cols - 1 do
        if c + 1 < cols then edges := (idx r c, idx r (c + 1)) :: !edges;
        if r + 1 < rows then edges := (idx r c, idx (r + 1) c) :: !edges
      done
    done;
    of_edges ~n:(rows * cols) !edges

  let unreachable = max_int

  let distances g ~src =
    let n = Graphs.Graph.n g in
    let dist = Array.make n unreachable in
    let queue = Queue.create () in
    dist.(src) <- 0;
    Queue.push src queue;
    while not (Queue.is_empty queue) do
      let u = Queue.pop queue in
      Array.iter
        (fun v ->
          if dist.(v) = unreachable then begin
            dist.(v) <- dist.(u) + 1;
            Queue.push v queue
          end)
        (Graphs.Graph.neighbors g u)
    done;
    dist

  let components g =
    let n = Graphs.Graph.n g in
    let comp = Array.make n (-1) in
    let next = ref 0 in
    for src = 0 to n - 1 do
      if comp.(src) = -1 then begin
        let id = !next in
        incr next;
        let queue = Queue.create () in
        comp.(src) <- id;
        Queue.push src queue;
        while not (Queue.is_empty queue) do
          let u = Queue.pop queue in
          Array.iter
            (fun v ->
              if comp.(v) = -1 then begin
                comp.(v) <- id;
                Queue.push v queue
              end)
            (Graphs.Graph.neighbors g u)
        done
      end
    done;
    comp
end

let same_graph (r : Ref.t) g =
  Graphs.Graph.n g = r.Ref.n
  && Graphs.Graph.m g = r.Ref.m
  && Array.for_all Fun.id
       (Array.init r.Ref.n (fun u -> Graphs.Graph.neighbors g u = r.Ref.adj.(u)))

(* Edge lists with isolated nodes, duplicates and both orientations: a
   random list over [0, n) without self-loops, plus a repeated and a
   reversed copy of a prefix of it.  [n = 0] gives the empty list. *)
let gen_edges =
  QCheck.Gen.(
    int_range 0 30 >>= fun n ->
    if n < 2 then return (n, [])
    else
      list_size (int_range 0 50) (pair (int_bound (n - 1)) (int_bound (n - 1)))
      >>= fun raw ->
      let es = List.filter (fun (u, v) -> u <> v) raw in
      int_range 0 (List.length es) >|= fun k ->
      let prefix = List.filteri (fun i _ -> i < k) es in
      (n, es @ prefix @ List.map (fun (u, v) -> (v, u)) prefix))

let arb_edges =
  QCheck.make
    ~print:(fun (n, es) ->
      Printf.sprintf "n=%d [%s]" n
        (String.concat "; "
           (List.map (fun (u, v) -> Printf.sprintf "%d,%d" u v) es)))
    gen_edges

let prop_of_edges =
  QCheck.Test.make ~name:"of_edges = list-based reference" ~count:500
    arb_edges (fun (n, es) ->
      same_graph (Ref.of_edges ~n es) (Graphs.Graph.of_edges ~n es))

let prop_grid =
  QCheck.Test.make ~name:"Gen.grid = edge-list reference" ~count:300
    QCheck.(pair (int_range 1 40) (int_range 1 40))
    (fun (rows, cols) ->
      same_graph (Ref.grid ~rows ~cols) (Graphs.Gen.grid ~rows ~cols))

let prop_bfs =
  QCheck.Test.make ~name:"BFS kernel = Queue-based reference" ~count:500
    arb_edges (fun (n, es) ->
      let g = Graphs.Graph.of_edges ~n es in
      Graphs.Bfs.components g = Ref.components g
      && List.for_all
           (fun src -> Graphs.Bfs.distances g ~src = Ref.distances g ~src)
           (List.init n Fun.id))

let test_of_rows_rejects () =
  let rows table u = Array.copy table.(u) in
  let raises name msg table =
    Alcotest.check_raises name (Invalid_argument msg) (fun () ->
        ignore (Graphs.Graph.of_rows ~n:(Array.length table) (rows table)))
  in
  raises "out of range" "Graph: node 3 out of range [0,3)"
    [| [| 1 |]; [| 0; 3 |]; [||] |];
  raises "negative" "Graph: node -1 out of range [0,3)"
    [| [| -1 |]; [||]; [||] |];
  raises "self-loop" "Graph.of_rows: self-loop" [| [| 1 |]; [| 0; 1 |] |];
  raises "asymmetric" "Graph.of_rows: rows are not symmetric"
    [| [| 1; 2 |]; [| 0 |]; [||] |];
  let g = Graphs.Graph.of_rows ~n:3 (rows [| [| 2; 1; 1 |]; [| 0 |]; [| 0 |] |]) in
  Alcotest.(check (array int)) "sorted, deduplicated" [| 1; 2 |]
    (Graphs.Graph.neighbors g 0);
  Alcotest.(check int) "edge count" 2 (Graphs.Graph.m g)

let suite =
  [
    ( "graphs.oracle",
      [
        QCheck_alcotest.to_alcotest prop_of_edges;
        QCheck_alcotest.to_alcotest prop_grid;
        QCheck_alcotest.to_alcotest prop_bfs;
        Alcotest.test_case "of_rows rejects malformed rows" `Quick
          test_of_rows_rejects;
      ] );
  ]
