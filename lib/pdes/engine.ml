exception Domains_exceed_partitions of { domains : int; partitions : int }

type result = {
  complete : bool;
  time : float;
  bcasts : int;
  rcvs : int;
  acks : int;
  deliveries : int;
  remote_deliveries : int;
  events : int;
  windows : int;
  heap_high_water : int;
  partitions : int;
  domains : int;
  cut_edges : int;
  part_sizes : int array;
  trace_entries : int;
}

(* --- Streaming trace merge -----------------------------------------------

   Spill files are time-ordered but not rank-ordered: within a partition
   an [ack] can precede same-time events it caused (its callback records
   the ack, then the next bcast).  The merge therefore pulls each file's
   run of equal-minimum-time entries, emits non-terminating entries
   first (partition order, then file order), then terminating ones.
   Ordering is a pure function of the spill contents, so the merged file
   is byte-identical however partitions were mapped onto domains. *)

type reader = { ic : in_channel; mutable lookahead : Dsim.Trace.entry option }

let reader_peek r =
  match r.lookahead with
  | Some _ as s -> s
  | None -> (
      match input_line r.ic with
      | exception End_of_file -> None
      | line -> (
          match Dsim.Trace_io.entry_of_line line with
          | Ok e ->
              r.lookahead <- Some e;
              r.lookahead
          | Error msg ->
              failwith (Printf.sprintf "Pdes.Engine: bad spill line: %s" msg)))

(* The file-order run of entries at exactly [time]. *)
let reader_take_run r ~time =
  let rec go acc =
    match reader_peek r with
    | Some e when e.Dsim.Trace.time = time ->
        r.lookahead <- None;
        go (e :: acc)
    | _ -> List.rev acc
  in
  go []

let is_terminating { Dsim.Trace.event; _ } =
  match event with
  | Dsim.Trace.Ack _ | Dsim.Trace.Abort _ -> true
  | _ -> false

let merge_spills ~paths ~out =
  let readers =
    List.map (fun p -> { ic = open_in p; lookahead = None }) paths
  in
  let oc = open_out out in
  let written = ref 0 in
  let emit e =
    output_string oc (Dsim.Trace_io.entry_to_json e);
    output_char oc '\n';
    incr written
  in
  Fun.protect
    ~finally:(fun () ->
      close_out oc;
      List.iter (fun r -> close_in r.ic) readers)
    (fun () ->
      let rec loop () =
        let tmin =
          List.fold_left
            (fun acc r ->
              match reader_peek r with
              | Some e -> (
                  match acc with
                  | None -> Some e.Dsim.Trace.time
                  | Some t -> Some (Float.min t e.Dsim.Trace.time))
              | None -> acc)
            None readers
        in
        match tmin with
        | None -> ()
        | Some time ->
            let runs = List.map (fun r -> reader_take_run r ~time) readers in
            List.iter
              (fun run ->
                List.iter (fun e -> if not (is_terminating e) then emit e) run)
              runs;
            List.iter
              (fun run ->
                List.iter (fun e -> if is_terminating e then emit e) run)
              runs;
            loop ()
      in
      loop ());
  !written

(* --- Engine --------------------------------------------------------------- *)

let run ~dual ?mk_dyn ~fprog ~assignment ~seed ~partitions ~domains ?trace_out
    () =
  if partitions < 1 then invalid_arg "Pdes.Engine.run: need partitions >= 1";
  if domains < 1 then invalid_arg "Pdes.Engine.run: need domains >= 1";
  if domains > partitions then
    raise (Domains_exceed_partitions { domains; partitions });
  let gprime = Graphs.Dual.unreliable dual in
  let n = Graphs.Graph.n gprime in
  let part = Graphs.Partition.blocks gprime ~parts:partitions in
  (* One shared node -> index-within-partition map, in node order. *)
  let part_sizes = Array.make partitions 0 in
  let rank = Array.make n 0 in
  for v = 0 to n - 1 do
    let p = part.(v) in
    rank.(v) <- part_sizes.(p);
    part_sizes.(p) <- part_sizes.(p) + 1
  done;
  let k = 1 + List.fold_left (fun acc (_, m) -> max acc m) (-1) assignment in
  let k = max k 1 in
  let sims = Array.init partitions (fun _ -> Dsim.Sim.create ()) in
  let boxes = Mailbox.create ~parts:partitions in
  let tracing = trace_out <> None in
  let traces =
    Array.init partitions (fun _ -> Dsim.Trace.create ~enabled:false ())
  in
  let spill p = match trace_out with
    | Some out -> Printf.sprintf "%s.p%d" out p
    | None -> assert false
  in
  let sinks =
    if tracing then
      Array.init partitions (fun p ->
          Some (Dsim.Trace_io.stream_file traces.(p) ~path:(spill p)))
    else Array.make partitions None
  in
  let megas =
    Array.init partitions (fun me ->
        Mega.create ~sim:sims.(me) ~dual
          ?dyn:(Option.map (fun f -> f ()) mk_dyn)
          ~fprog ~part ~rank ~n_local:part_sizes.(me) ~me ~parts:partitions ~k
          ~seed ~trace:traces.(me)
          ~tracing
          ~send:(fun ~dst entry -> Mailbox.push boxes ~src:me ~dst entry)
          ())
  in
  List.iter
    (fun (node, msg) -> Mega.schedule_arrival megas.(part.(node)) ~node ~msg)
    assignment;
  let my_partitions w =
    let rec go p acc = if p < 0 then acc else go (p - domains) (p :: acc) in
    go (partitions - 1 - ((partitions - 1 - w) mod domains)) []
  in
  let run_partitions ps until =
    List.iter (fun p -> ignore (Dsim.Sim.run ~until sims.(p))) ps
  in
  let flush () =
    for dst = 0 to partitions - 1 do
      List.iter
        (fun entry -> Mega.receive_remote megas.(dst) entry)
        (Mailbox.drain boxes ~dst)
    done
  in
  let next_tau () =
    Array.fold_left
      (fun acc sim ->
        match Dsim.Sim.next_time sim with
        | None -> acc
        | Some t -> (
            match acc with None -> Some t | Some u -> Some (Float.min u t)))
      None sims
  in
  let windows = ref 0 in
  let mine = my_partitions 0 in
  let step run_window =
    let rec loop () =
      match next_tau () with
      | None -> ()
      | Some tau ->
          run_window (tau +. fprog);
          flush ();
          incr windows;
          loop ()
    in
    loop ()
  in
  (if domains = 1 then
     (* [--domains 1]: same windows, same mailboxes, no domains at all —
        the parallel execution run entirely on the calling domain. *)
     step (fun until -> run_partitions (List.init partitions Fun.id) until)
   else begin
     let b = Barrier.create ~workers:(domains - 1) in
     let spawned =
       (* The worker closures deliberately capture [sims] (and, through
          the megas' callbacks, the partition state): each worker only
          touches the partitions assigned to it ([p mod domains]), and
          every cross-window access is ordered by the barrier mutex. *)
       List.init (domains - 1) (fun i ->
           let ps = my_partitions (i + 1) in
           Domain.spawn (fun () ->
               Barrier.worker b ~partitions:ps (run_partitions ps)))
     in
     Fun.protect
       ~finally:(fun () ->
         Barrier.stop b;
         List.iter Domain.join spawned)
       (fun () ->
         step (fun until ->
             Barrier.window b ~partitions:mine ~until (run_partitions mine)))
   end);
  let trace_entries =
    if tracing then begin
      Array.iter
        (function Some s -> Dsim.Trace_io.sink_close s | None -> ())
        sinks;
      let out = Option.get trace_out in
      let paths = List.init partitions (fun p -> spill p) in
      let written = merge_spills ~paths ~out in
      List.iter Sys.remove paths;
      written
    end
    else 0
  in
  let sum f = Array.fold_left (fun acc m -> acc + f m) 0 megas in
  let deliveries = sum Mega.delivered in
  let complete = deliveries = n * k && assignment <> [] in
  {
    complete;
    time =
      (if complete then
         Array.fold_left (fun acc m -> Float.max acc (Mega.last_delivery m)) 0. megas
       else Float.infinity);
    bcasts = sum Mega.bcasts;
    rcvs = sum Mega.rcvs;
    acks = sum Mega.acks;
    deliveries;
    remote_deliveries = Mailbox.pushed boxes;
    events = Array.fold_left (fun acc s -> acc + Dsim.Sim.executed_events s) 0 sims;
    windows = !windows;
    heap_high_water =
      Array.fold_left (fun acc s -> max acc (Dsim.Sim.heap_high_water s)) 0 sims;
    partitions;
    domains;
    cut_edges = Graphs.Partition.cut_edges gprime ~part;
    part_sizes;
    trace_entries;
  }
