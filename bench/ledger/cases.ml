(* Layer cases for the traced run.  Each drives one layer alone through
   its public functions, so a per-operation cost can be read without the
   layers above or below it. *)

(* [Dsim.Heap] alone: a push/cancel/pop stream held at [depth] pending
   entries, cancelling at [cancel_ratio] of pushes, as the workload that
   measured those two figures did.  Returns ns per heap operation. *)
let heap_replay ~depth ~cancel_ratio ~ops =
  let depth = max 1 depth in
  let rng = Dsim.Rng.create ~seed:depth in
  let delays = Array.init 4096 (fun _ -> Dsim.Rng.float rng 20.) in
  let cancels =
    Array.init 4096 (fun _ -> Dsim.Rng.bernoulli rng ~p:cancel_ratio)
  in
  let h = Dsim.Heap.create () in
  let handles =
    Array.init depth (fun i -> Dsim.Heap.push h ~time:delays.(i land 4095) i)
  in
  let count = ref 0 in
  let (), dt =
    Clock.timed (fun () ->
        let i = ref 0 and now = ref 0. in
        while !count < ops do
          let j = !i land 4095 in
          (match Dsim.Heap.pop h with
          | Some (time, v) ->
              now := time;
              handles.(v) <- Dsim.Heap.push h ~time:(time +. delays.(j)) v
          | None -> ());
          count := !count + 2;
          if cancels.(j) then begin
            let v = !i mod depth in
            Dsim.Heap.cancel h handles.(v);
            handles.(v) <- Dsim.Heap.push h ~time:(!now +. delays.(j)) v;
            count := !count + 2
          end;
          incr i
        done)
  in
  dt *. 1e9 /. float_of_int !count

(* [Amac.Standard_mac] under a sink protocol whose handlers drop
   everything: every node broadcasts once per round, a round every
   Fack + 1.  Returns MAC ns per broadcast (planning, delivery and ack
   events, watchdogs). *)
let mac_sink ~side ~rounds =
  let rng = Dsim.Rng.create ~seed:side in
  let g = Graphs.Gen.grid ~rows:side ~cols:side in
  let dual = Graphs.Dual.r_restricted_random rng ~g ~r:2 ~extra:(2 * side * side) in
  let n = Graphs.Dual.n dual in
  let sim = Dsim.Sim.create () in
  let mac =
    Amac.Standard_mac.create ~sim ~dual ~fack:20. ~fprog:1.
      ~policy:(Amac.Schedulers.random_compliant ())
      ~rng ()
  in
  let drop = { Amac.Mac_intf.on_rcv = (fun ~src:_ _ -> ()); on_ack = (fun _ -> ()) } in
  for node = 0 to n - 1 do
    Amac.Standard_mac.attach mac ~node drop
  done;
  let rec round r () =
    for node = 0 to n - 1 do
      Amac.Standard_mac.bcast mac ~node r
    done;
    if r + 1 < rounds then
      Amac.Standard_mac.env_at mac ~time:(float_of_int (r + 1) *. 21.) (round (r + 1))
  in
  Amac.Standard_mac.env_at mac ~time:0. (round 0);
  let _, dt = Clock.timed (fun () -> Dsim.Sim.run sim) in
  dt *. 1e9 /. float_of_int (max 1 (Amac.Standard_mac.bcast_count mac))

(* [Mmb.Bmmb] over a stub MAC handle that delivers to every G-neighbour
   and acks immediately, with no engine below it.  Returns protocol ns
   per receive. *)
let bmmb_stub ~side ~k ~repeats =
  let g = Graphs.Gen.grid ~rows:side ~cols:side in
  let n = Graphs.Graph.n g in
  let rcvs = ref 0 in
  let total = ref 0. in
  for rep = 1 to repeats do
    let handlers = Array.make n None in
    let busy = Array.make n false in
    let pending = Queue.create () in
    let mac =
      {
        Amac.Mac_handle.h_n = n;
        h_attach = (fun ~node h -> handlers.(node) <- Some h);
        h_bcast =
          (fun ~node m ->
            busy.(node) <- true;
            Queue.push (node, m) pending);
        h_busy = (fun ~node -> busy.(node));
        h_now = (fun () -> 0.);
        h_trace = None;
      }
    in
    let t =
      Mmb.Bmmb.install ~mac ~on_deliver:(fun ~node:_ ~msg:_ ~time:_ -> ()) ()
    in
    let handler node = Option.get handlers.(node) in
    let (), dt =
      Clock.timed (fun () ->
          for msg = 0 to k - 1 do
            Mmb.Bmmb.arrive t ~node:((msg * 7919 * rep) mod n) ~msg
          done;
          while not (Queue.is_empty pending) do
            let node, m = Queue.pop pending in
            Array.iter
              (fun dst ->
                incr rcvs;
                (handler dst).Amac.Mac_intf.on_rcv ~src:node m)
              (Graphs.Graph.neighbors g node);
            busy.(node) <- false;
            (handler node).Amac.Mac_intf.on_ack m
          done)
    in
    total := !total +. dt
  done;
  !total *. 1e9 /. float_of_int (max 1 !rcvs)

(* [Mmb.Bounds.bmmb_upper] on each given (dual, assignment), in seconds. *)
let bounds inputs ~fack ~fprog =
  snd
    (Clock.timed (fun () ->
         List.iter
           (fun (dual, assignment) ->
             ignore (Mmb.Bounds.bmmb_upper ~dual ~assignment ~fack ~fprog))
           inputs))

(* [Graphs.Partition.blocks] on G' as the partitioned engine calls it;
   returns the wall time. *)
let partition dual ~parts =
  snd
    (Clock.timed (fun () ->
         ignore (Graphs.Partition.blocks (Graphs.Dual.unreliable dual) ~parts)))
