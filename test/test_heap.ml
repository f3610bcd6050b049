let test_empty () =
  let h : int Dsim.Heap.t = Dsim.Heap.create () in
  Alcotest.(check bool) "empty" true (Dsim.Heap.is_empty h);
  Alcotest.(check int) "length" 0 (Dsim.Heap.length h);
  Alcotest.(check bool) "pop none" true (Dsim.Heap.pop h = None);
  Alcotest.(check bool) "peek none" true (Dsim.Heap.peek_time h = None)

let test_ordering () =
  let h = Dsim.Heap.create () in
  ignore (Dsim.Heap.push h ~time:3. "c");
  ignore (Dsim.Heap.push h ~time:1. "a");
  ignore (Dsim.Heap.push h ~time:2. "b");
  let drain () =
    let rec go acc =
      match Dsim.Heap.pop h with
      | None -> List.rev acc
      | Some (_, v) -> go (v :: acc)
    in
    go []
  in
  Alcotest.(check (list string)) "sorted" [ "a"; "b"; "c" ] (drain ())

let test_fifo_at_equal_times () =
  let h = Dsim.Heap.create () in
  List.iter (fun v -> ignore (Dsim.Heap.push h ~time:1. v)) [ 1; 2; 3; 4 ];
  let rec drain acc =
    match Dsim.Heap.pop h with
    | None -> List.rev acc
    | Some (_, v) -> drain (v :: acc)
  in
  Alcotest.(check (list int)) "insertion order" [ 1; 2; 3; 4 ] (drain [])

let test_cancel () =
  let h = Dsim.Heap.create () in
  let _a = Dsim.Heap.push h ~time:1. "a" in
  let b = Dsim.Heap.push h ~time:2. "b" in
  let _c = Dsim.Heap.push h ~time:3. "c" in
  Dsim.Heap.cancel h b;
  Alcotest.(check int) "length after cancel" 2 (Dsim.Heap.length h);
  Dsim.Heap.cancel h b (* double cancel is a no-op *);
  Alcotest.(check int) "length unchanged" 2 (Dsim.Heap.length h);
  let rec drain acc =
    match Dsim.Heap.pop h with
    | None -> List.rev acc
    | Some (_, v) -> drain (v :: acc)
  in
  Alcotest.(check (list string)) "b skipped" [ "a"; "c" ] (drain [])

let test_cancel_root () =
  let h = Dsim.Heap.create () in
  let a = Dsim.Heap.push h ~time:1. "a" in
  ignore (Dsim.Heap.push h ~time:2. "b");
  Dsim.Heap.cancel h a;
  Alcotest.(check (option (float 1e-9))) "peek skips dead root" (Some 2.)
    (Dsim.Heap.peek_time h);
  (match Dsim.Heap.pop h with
  | Some (_, v) -> Alcotest.(check string) "pop skips dead root" "b" v
  | None -> Alcotest.fail "expected b")

let test_cancel_of_popped () =
  let h = Dsim.Heap.create () in
  let a = Dsim.Heap.push h ~time:1. "a" in
  let b = Dsim.Heap.push h ~time:2. "b" in
  ignore (Dsim.Heap.pop h) (* pops a *);
  Dsim.Heap.cancel h a (* must be a no-op: already popped *);
  Alcotest.(check int) "b still live" 1 (Dsim.Heap.length h);
  Alcotest.(check int) "cancel of popped not counted" 0
    (Dsim.Heap.cancelled h);
  Dsim.Heap.cancel h b;
  Dsim.Heap.cancel h b;
  Alcotest.(check int) "double cancel counted once" 1 (Dsim.Heap.cancelled h);
  Alcotest.(check bool) "drained" true (Dsim.Heap.pop h = None)

let test_pop_if_before () =
  let h = Dsim.Heap.create () in
  Alcotest.(check bool) "empty" true (Dsim.Heap.pop_if_before ~horizon:5. h = Dsim.Heap.Empty);
  ignore (Dsim.Heap.push h ~time:3. "a");
  ignore (Dsim.Heap.push h ~time:7. "b");
  Alcotest.(check bool) "beyond horizon stays queued" true
    (Dsim.Heap.pop_if_before ~horizon:2. h = Dsim.Heap.Later 3.);
  Alcotest.(check int) "nothing was popped" 2 (Dsim.Heap.length h);
  Alcotest.(check bool) "time exactly at horizon pops" true
    (Dsim.Heap.pop_if_before ~horizon:3. h = Dsim.Heap.Due (3., "a"));
  Alcotest.(check bool) "no horizon always pops" true
    (Dsim.Heap.pop_if_before h = Dsim.Heap.Due (7., "b"));
  Alcotest.(check bool) "drained" true
    (Dsim.Heap.pop_if_before h = Dsim.Heap.Empty)

let test_pop_if_before_skips_dead () =
  let h = Dsim.Heap.create () in
  let a = Dsim.Heap.push h ~time:1. "a" in
  ignore (Dsim.Heap.push h ~time:4. "b");
  Dsim.Heap.cancel h a;
  (* The dead root must be drained before the horizon comparison: the
     live minimum is 4., past the horizon. *)
  Alcotest.(check bool) "dead root invisible to the horizon check" true
    (Dsim.Heap.pop_if_before ~horizon:2. h = Dsim.Heap.Later 4.)

let test_nan_rejected () =
  let h = Dsim.Heap.create () in
  Alcotest.check_raises "nan" (Invalid_argument "Heap.push: NaN time")
    (fun () -> ignore (Dsim.Heap.push h ~time:Float.nan ()))

(* Minor words per heap operation over 20k pop+push cycles at [depth]
   pending entries, and the heap's final depth.  With [cancels], each
   cycle also pushes an entry that would never surface at the root and
   cancels it at once. *)
let words_per_op ~depth ~cancels =
  let h = Dsim.Heap.create () in
  let delays = Array.init 64 (fun i -> float_of_int ((i * 37) mod 64)) in
  for i = 0 to depth - 1 do
    ignore (Dsim.Heap.push h ~time:delays.(i land 63) i)
  done;
  let ops = ref 0 in
  let w0 = Gc.minor_words () in
  for c = 1 to 20_000 do
    match Dsim.Heap.pop h with
    | Some (time, v) ->
        ignore (Dsim.Heap.push h ~time:(time +. delays.(c land 63)) v);
        ops := !ops + 2;
        if cancels then begin
          Dsim.Heap.cancel h (Dsim.Heap.push h ~time:(time +. 1e6) v);
          ops := !ops + 2
        end
    | None -> ()
  done;
  ((Gc.minor_words () -. w0) /. float_of_int !ops, Dsim.Heap.depth h)

(* Sifts move only unboxed keys, so a pop+push cycle allocates the same
   at every depth: the entry and the result boxes, never anything per
   sift level.  A comparator that boxes its float would add two words
   per level, and a depth-4096 heap has eight more levels than a
   depth-16 one. *)
let test_sift_allocation_flat () =
  let shallow, _ = words_per_op ~depth:16 ~cancels:false in
  let deep, _ = words_per_op ~depth:4096 ~cancels:false in
  Alcotest.(check (float 0.01)) "minor words per pop+push, depth 16 vs 4096"
    shallow deep

(* Cancelling is a field write and compaction rearranges the flat
   arrays in place, so a stream where half the pushes are cancelled
   allocates no more per operation than a cancel-free one, and
   compaction holds the heap to twice its live size instead of letting
   the dead entries pile up. *)
let test_cancel_allocation_flat () =
  let live = 256 in
  let plain, _ = words_per_op ~depth:live ~cancels:false in
  let heavy, depth = words_per_op ~depth:live ~cancels:true in
  Alcotest.(check bool)
    (Printf.sprintf "minor words per op, cancel-heavy %.2f <= cancel-free %.2f"
       heavy plain)
    true
    (heavy <= plain +. 0.01);
  Alcotest.(check bool)
    (Printf.sprintf "depth %d <= 2 x %d live" depth live)
    true
    (depth <= 2 * live)

let prop_drain_sorted =
  QCheck.Test.make ~name:"heap drains in sorted stable order" ~count:200
    QCheck.(list (pair (float_bound_exclusive 1000.) small_int))
    (fun entries ->
      let h = Dsim.Heap.create () in
      List.iter (fun (time, v) -> ignore (Dsim.Heap.push h ~time v)) entries;
      let rec drain acc =
        match Dsim.Heap.pop h with
        | None -> List.rev acc
        | Some (time, v) -> drain ((time, v) :: acc)
      in
      let out = drain [] in
      let times = List.map fst out in
      List.sort compare times = times && List.length out = List.length entries)

let prop_cancel_half =
  QCheck.Test.make ~name:"cancelling entries removes exactly them" ~count:200
    QCheck.(list (float_bound_exclusive 1000.))
    (fun times ->
      let h = Dsim.Heap.create () in
      let handles =
        List.mapi (fun i time -> (i, Dsim.Heap.push h ~time i)) times
      in
      let cancelled =
        List.filter_map
          (fun (i, hd) ->
            if i mod 2 = 0 then begin
              Dsim.Heap.cancel h hd;
              Some i
            end
            else None)
          handles
      in
      let rec drain acc =
        match Dsim.Heap.pop h with
        | None -> List.rev acc
        | Some (_, v) -> drain (v :: acc)
      in
      let out = drain [] in
      List.for_all (fun i -> not (List.mem i out)) cancelled
      && List.length out = List.length times - List.length cancelled)

(* --- Model-based: the heap against a sorted-list model ------------------ *)

type op = Push of int | Cancel of int | Pop | Pop_before of int

let show_op = function
  | Push t -> Printf.sprintf "push %d" t
  | Cancel k -> Printf.sprintf "cancel newest-%d" k
  | Pop -> "pop"
  | Pop_before h -> Printf.sprintf "pop_if_before %d" h

(* Cancels outnumber pushes and aim at the newest handles, so most
   entries die in the heap and compaction fires many times per stream;
   times come from a small range, so equal-time FIFO order is exercised
   constantly. *)
let arb_ops =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map show_op ops))
    QCheck.Gen.(
      list_size (int_range 50 600)
        (frequency
           [
             (5, map (fun t -> Push t) (int_bound 7));
             (6, map (fun k -> Cancel k) (int_bound 15));
             (1, return Pop);
             (1, map (fun h -> Pop_before h) (int_bound 8));
           ]))

type model_entry = { m_time : float; m_seq : int; mutable m_state : [ `Live | `Cancelled | `Popped ] }

let prop_model =
  QCheck.Test.make ~name:"heap = sorted-list model (cancel-heavy streams)"
    ~count:300 arb_ops (fun ops ->
      let h = Dsim.Heap.create () in
      let handles = ref [||] and model = ref [||] in
      let n = ref 0 and live = ref 0 and high = ref 0 and cancelled = ref 0 in
      (* The live minimum by (time, seq): a linear scan of the model. *)
      let model_min () =
        let best = ref None in
        for i = 0 to !n - 1 do
          let e = !model.(i) in
          match !best with
          | _ when e.m_state <> `Live -> ()
          | Some b when (b.m_time, b.m_seq) <= (e.m_time, e.m_seq) -> ()
          | _ -> best := Some e
        done;
        !best
      in
      let take e =
        e.m_state <- `Popped;
        decr live
      in
      let fail fmt = QCheck.Test.fail_reportf fmt in
      List.iteri
        (fun step op ->
          (match op with
          | Push t ->
              let time = float_of_int t in
              let hd = Dsim.Heap.push h ~time !n in
              let e = { m_time = time; m_seq = !n; m_state = `Live } in
              if !n = Array.length !model then begin
                let cap = max 16 (2 * !n) in
                let grow a fill =
                  Array.init cap (fun i -> if i < !n then a.(i) else fill)
                in
                model := grow !model e;
                handles := grow !handles hd
              end;
              !model.(!n) <- e;
              !handles.(!n) <- hd;
              incr n;
              incr live;
              high := max !high !live
          | Cancel k when !n > 0 ->
              let i = max 0 (!n - 1 - k) in
              Dsim.Heap.cancel h !handles.(i);
              let e = !model.(i) in
              if e.m_state = `Live then begin
                e.m_state <- `Cancelled;
                decr live;
                incr cancelled;
                let dead = Dsim.Heap.depth h - Dsim.Heap.length h in
                if dead > max 32 (Dsim.Heap.length h) then
                  fail "step %d: %d dead entries beside %d live after a cancel"
                    step dead (Dsim.Heap.length h)
              end
          | Cancel _ -> ()
          | Pop -> (
              match (Dsim.Heap.pop h, model_min ()) with
              | None, None -> ()
              | Some (time, v), Some e when time = e.m_time && v = e.m_seq ->
                  take e
              | got, _ ->
                  fail "step %d: pop gave %s" step
                    (match got with
                    | None -> "None"
                    | Some (t, v) -> Printf.sprintf "(%g, %d)" t v))
          | Pop_before hz -> (
              let horizon = float_of_int hz in
              match (Dsim.Heap.pop_if_before ~horizon h, model_min ()) with
              | Dsim.Heap.Empty, None -> ()
              | Dsim.Heap.Later t, Some e when t = e.m_time && t > horizon -> ()
              | Dsim.Heap.Due (t, v), Some e
                when t = e.m_time && v = e.m_seq && t <= horizon ->
                  take e
              | _ -> fail "step %d: pop_if_before %d disagrees" step hz));
          if Dsim.Heap.length h <> !live then
            fail "step %d: length %d, model %d" step (Dsim.Heap.length h) !live;
          if Dsim.Heap.high_water h <> !high then
            fail "step %d: high_water %d, model %d" step
              (Dsim.Heap.high_water h) !high;
          if Dsim.Heap.pushes h <> !n then
            fail "step %d: pushes %d, model %d" step (Dsim.Heap.pushes h) !n;
          if Dsim.Heap.cancelled h <> !cancelled then
            fail "step %d: cancelled %d, model %d" step
              (Dsim.Heap.cancelled h) !cancelled)
        ops;
      (* Drain: the rest must come out in exact (time, seq) order. *)
      let rec drain () =
        match (Dsim.Heap.pop h, model_min ()) with
        | None, None -> true
        | Some (time, v), Some e when time = e.m_time && v = e.m_seq ->
            take e;
            drain ()
        | _ -> fail "final drain disagrees with the model"
      in
      drain ())

let suite =
  [
    ( "dsim.heap",
      [
        Alcotest.test_case "empty heap" `Quick test_empty;
        Alcotest.test_case "pops in time order" `Quick test_ordering;
        Alcotest.test_case "stable at equal times" `Quick test_fifo_at_equal_times;
        Alcotest.test_case "cancellation" `Quick test_cancel;
        Alcotest.test_case "cancel at root" `Quick test_cancel_root;
        Alcotest.test_case "cancel of popped entry" `Quick
          test_cancel_of_popped;
        Alcotest.test_case "pop_if_before semantics" `Quick test_pop_if_before;
        Alcotest.test_case "pop_if_before skips dead roots" `Quick
          test_pop_if_before_skips_dead;
        Alcotest.test_case "rejects NaN time" `Quick test_nan_rejected;
        Alcotest.test_case "sifts allocate nothing per level" `Quick
          test_sift_allocation_flat;
        Alcotest.test_case "cancels and compaction allocate nothing" `Quick
          test_cancel_allocation_flat;
        QCheck_alcotest.to_alcotest prop_drain_sorted;
        QCheck_alcotest.to_alcotest prop_cancel_half;
        QCheck_alcotest.to_alcotest prop_model;
      ] );
  ]
