type violation = { rule : string; detail : string }

type event =
  | Violation of Dsim.Trace.entry option * violation
  | Churned
  | Progress_gap of float

let pp_violation ppf { rule; detail } = Fmt.pf ppf "[%s] %s" rule detail

(* Only ever called once a rule has failed: formatting stays off the
   compliant per-event path. *)
let describe rule fmt = Format.kasprintf (fun detail -> { rule; detail }) fmt

type state = Open | Acked | Aborted

(* One broadcast instance, kept for the whole run. *)
type inst = {
  sender : int;
  bcast_time : float;
  g' : Graphs.Graph.t;
      (* the G' in force when the instance opened: for static runs the
         base G' itself; for dynamic runs the epoch-current unreliable
         graph pinned (read-only) at Bcast time *)
  mutable state : state;
  mutable term_time : float; (* +inf while open: its coverage end *)
  mutable rcvd : int list; (* distinct receivers so far *)
}

(* Per receiver, the progress-bound coverage intervals
   [rcv_time - fprog, owner's term_time], in rcv order.  A time-ordered
   stream appends them already sorted by start, so a span check is one
   allocation-free sweep. *)
type coverage = {
  mutable starts : float array;
  mutable owners : inst array;
  mutable len : int;
}

type t = {
  g : Graphs.Graph.t;
  g' : Graphs.Graph.t; (* base (union) G' — every epoch is a subset *)
  dyn : Dyn.Dual.t option; (* read-only: pins epoch-current G' per Bcast *)
  fack : float;
  fprog : float;
  eps_abort : float;
  tol : float;
  on_event : event -> unit;
  insts : (int, inst) Hashtbl.t;
  coverage : coverage array;
  mutable end_time : float;
  (* Empirical progress-gap tracking (the watchdog condition, observed). *)
  connected_open : int array;
  cover : int array;
  danger_since : float array; (* nan when not in danger *)
  mutable violations : violation list; (* reversed *)
  mutable count : int;
  mutable churned : int;
  mutable cur_entry : Dsim.Trace.entry; (* entry being processed *)
  mutable finished : bool;
}

let create ~dual ~fack ~fprog ?(eps_abort = 0.) ?dyn ?(on_event = ignore) () =
  let n = Graphs.Dual.n dual in
  {
    g = Graphs.Dual.reliable dual;
    g' = Graphs.Dual.unreliable dual;
    dyn;
    fack;
    fprog;
    eps_abort;
    tol = 1e-9 *. Float.max 1. fack;
    on_event;
    insts = Hashtbl.create 256;
    coverage =
      Array.init n (fun _ -> { starts = [||]; owners = [||]; len = 0 });
    end_time = 0.;
    connected_open = Array.make n 0;
    cover = Array.make n 0;
    danger_since = Array.make n Float.nan;
    violations = [];
    count = 0;
    churned = 0;
    cur_entry =
      { Dsim.Trace.time = 0.; event = Dsim.Trace.Arrive { node = 0; msg = 0 } };
    finished = false;
  }

let add t v =
  t.violations <- v :: t.violations;
  t.count <- t.count + 1;
  t.on_event
    (Violation ((if t.finished then None else Some t.cur_entry), v))

let update_danger t j ~now =
  let dangerous = t.connected_open.(j) > 0 && t.cover.(j) = 0 in
  let since = t.danger_since.(j) in
  if Float.is_nan since then (if dangerous then t.danger_since.(j) <- now)
  else if not dangerous then begin
    t.on_event (Progress_gap (now -. since));
    t.danger_since.(j) <- Float.nan
  end

let add_coverage t j ~start inst =
  let c = t.coverage.(j) in
  if c.len = Array.length c.starts then begin
    let cap = max 4 (2 * c.len) in
    let starts = Array.make cap 0. and owners = Array.make cap inst in
    Array.blit c.starts 0 starts 0 c.len;
    Array.blit c.owners 0 owners 0 c.len;
    c.starts <- starts;
    c.owners <- owners
  end;
  (* Insertion keeps the starts sorted; a time-ordered stream never
     shifts. *)
  let i = ref c.len in
  while !i > 0 && c.starts.(!i - 1) > start do
    c.starts.(!i) <- c.starts.(!i - 1);
    c.owners.(!i) <- c.owners.(!i - 1);
    decr i
  done;
  c.starts.(!i) <- start;
  c.owners.(!i) <- inst;
  c.len <- c.len + 1

(* Do the coverage intervals from the [i]-th on extend [point] to [hi],
   up to [tol] slack at junctions?  Intervals that end before they start
   cover nothing and are skipped. *)
let rec covered c ~hi ~tol point i =
  if point >= hi -. tol then true
  else if i = c.len then false
  else
    let a = c.starts.(i) and e = c.owners.(i).term_time in
    if e < a then covered c ~hi ~tol point (i + 1)
    else if a > point +. tol then false
    else covered c ~hi ~tol (if e > point then e else point) (i + 1)

(* The progress bound for one connected span [b, term_time]. *)
let check_span t ~j ~b ~term_time =
  let hi = term_time -. t.fprog in
  if hi -. b > t.tol && not (covered t.coverage.(j) ~hi ~tol:t.tol b 0) then
    add t
      (describe "progress-bound"
         "receiver %d starved during [%g, %g] (connected span [%g, %g], \
          Fprog = %g)"
         j b hi b term_time t.fprog)

(* First terminating event: close the instance's connected spans
   (checking the progress bound on each) and unwind the empirical danger
   state.  Every receiver so far got the instance while it was open. *)
let terminate t inst ~time =
  let nbrs = Graphs.Graph.neighbors t.g inst.sender in
  for k = 0 to Array.length nbrs - 1 do
    let j = nbrs.(k) in
    check_span t ~j ~b:inst.bcast_time ~term_time:time;
    t.connected_open.(j) <- t.connected_open.(j) - 1;
    update_danger t j ~now:time
  done;
  List.iter
    (fun j ->
      t.cover.(j) <- t.cover.(j) - 1;
      update_danger t j ~now:time)
    inst.rcvd

let on_bcast t ~time ~node ~instance =
  if Hashtbl.mem t.insts instance then
    add t (describe "cause-function" "instance %d broadcast twice" instance)
  else begin
    Hashtbl.replace t.insts instance
      {
        sender = node;
        bcast_time = time;
        (* The MAC steps the epoch before recording Bcast, so the
           read-only [current] here is the G' this instance's plan was
           validated against. *)
        g' =
          (match t.dyn with
          | None -> t.g'
          | Some d -> Graphs.Dual.unreliable (Dyn.Dual.current d));
        state = Open;
        term_time = infinity;
        rcvd = [];
      };
    let nbrs = Graphs.Graph.neighbors t.g node in
    for k = 0 to Array.length nbrs - 1 do
      let j = nbrs.(k) in
      t.connected_open.(j) <- t.connected_open.(j) + 1;
      update_danger t j ~now:time
    done
  end

let on_rcv t ~time ~node ~instance =
  match Hashtbl.find_opt t.insts instance with
  | None ->
      add t
        (describe "cause-function" "rcv at node %d from unknown instance %d"
           node instance)
  | Some inst ->
      if inst.sender = node then
        add t
          (describe "receive-correctness"
             "instance %d delivered to its own sender %d" instance node);
      if not (Graphs.Graph.mem_edge inst.g' inst.sender node) then
        if Graphs.Graph.mem_edge t.g' inst.sender node then begin
          (* In the union G' but not in the epoch pinned at bcast: the
             link churned away, the delivery is explained by the
             schedule, not by a MAC bug. *)
          t.churned <- t.churned + 1;
          t.on_event Churned
        end
        else
          add t
            (describe "receive-correctness"
               "instance %d delivered to %d, not a G'-neighbor of sender %d"
               instance node inst.sender);
      let first = not (List.mem node inst.rcvd) in
      if first then inst.rcvd <- node :: inst.rcvd
      else
        add t
          (describe "receive-correctness"
             "instance %d delivered twice to node %d" instance node);
      (match inst.state with
      | Open ->
          if first then begin
            t.cover.(node) <- t.cover.(node) + 1;
            update_danger t node ~now:time
          end
      | Acked ->
          add t
            (describe "receive-correctness"
               "instance %d delivered to %d at %g after its ack at %g"
               instance node time inst.term_time)
      | Aborted ->
          if time > inst.term_time +. t.eps_abort +. t.tol then
            add t
              (describe "receive-correctness"
                 "instance %d delivered to %d at %g, more than eps_abort \
                  after abort at %g"
                 instance node time inst.term_time));
      add_coverage t node ~start:(time -. t.fprog) inst

let on_term t ~time ~node ~instance ~ack =
  match Hashtbl.find_opt t.insts instance with
  | None ->
      add t
        (describe "cause-function" "%s for unknown instance %d"
           (if ack then "ack" else "abort")
           instance)
  | Some inst ->
      if inst.sender <> node then
        add t
          (describe "cause-function"
             "%s of instance %d at node %d, but sender is %d"
             (if ack then "ack" else "abort")
             instance node inst.sender);
      (match inst.state with
      | Acked | Aborted ->
          add t
            (describe "ack-correctness"
               "instance %d has two terminating events" instance)
      | Open ->
          inst.state <- (if ack then Acked else Aborted);
          inst.term_time <- time;
          if ack then begin
            let nbrs = Graphs.Graph.neighbors t.g inst.sender in
            for k = 0 to Array.length nbrs - 1 do
              if not (List.mem nbrs.(k) inst.rcvd) then
                add t
                  (describe "ack-correctness"
                     "instance %d acked before delivering to G-neighbor %d"
                     instance nbrs.(k))
            done
          end;
          terminate t inst ~time);
      if ack && time -. inst.bcast_time > t.fack +. t.tol then
        add t
          (describe "ack-bound" "instance %d acked %g after bcast (Fack = %g)"
             instance
             (time -. inst.bcast_time)
             t.fack)

let on_entry t ({ Dsim.Trace.time; event } as entry) =
  t.cur_entry <- entry;
  if time > t.end_time then t.end_time <- time;
  match event with
  | Dsim.Trace.Arrive _ | Dsim.Trace.Deliver _ -> ()
  | Dsim.Trace.Bcast { node; instance; _ } -> on_bcast t ~time ~node ~instance
  | Dsim.Trace.Rcv { node; instance; _ } -> on_rcv t ~time ~node ~instance
  | Dsim.Trace.Ack { node; instance; _ } ->
      on_term t ~time ~node ~instance ~ack:true
  | Dsim.Trace.Abort { node; instance; _ } ->
      on_term t ~time ~node ~instance ~ack:false

let violations t = List.rev t.violations
let violation_count t = t.count
let churned_count t = t.churned

let finish ?(allow_open = false) t =
  if not t.finished then begin
    t.finished <- true;
    (* Instances still open at the horizon: their connected spans run to
       the last observed event. *)
    Dsim.Tbl.sorted_iter ~cmp:Int.compare
      (fun uid inst ->
        if inst.state = Open then begin
          if not allow_open then
            add t (describe "termination" "instance %d never terminated" uid);
          Array.iter
            (fun j ->
              check_span t ~j ~b:inst.bcast_time ~term_time:t.end_time)
            (Graphs.Graph.neighbors t.g inst.sender)
        end)
      t.insts;
    (* Close any still-running empirical danger windows at the horizon. *)
    Array.iteri
      (fun j since ->
        if not (Float.is_nan since) then begin
          t.on_event (Progress_gap (t.end_time -. since));
          t.danger_since.(j) <- Float.nan
        end)
      t.danger_since
  end;
  violations t

let audit ~dual ~fack ~fprog ?eps_abort ?allow_open trace =
  let t = create ~dual ~fack ~fprog ?eps_abort () in
  Dsim.Trace.iter trace (on_entry t);
  finish ?allow_open t
