(* Reference for test/test_mac_oracle.ml: the standard MAC engine as it
   was before its per-broadcast state moved to slot arrays (Hashtbl
   delivered/pending sets, table pools, a uid -> instance table), kept
   verbatim below the [open]. *)

open Amac

exception Not_well_formed of string

(* Sorted dynamic set of instance uids, replacing a per-node [Hashtbl] on
   the watchdog hot path.  Uids are minted in increasing order, so [add]
   is almost always an append, and traversal is ascending with no
   snapshot, sort, or allocation — deterministic by construction. *)
module Uidset = struct
  type t = { mutable a : int array; mutable len : int }

  let create () = { a = [||]; len = 0 }

  (* Position of [uid] in the sorted prefix, or its insertion point. *)
  let search s uid =
    let lo = ref 0 and hi = ref s.len in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if s.a.(mid) < uid then lo := mid + 1 else hi := mid
    done;
    !lo

  let add s uid =
    let cap = Array.length s.a in
    if s.len = cap then begin
      let a = Array.make (if cap = 0 then 8 else 2 * cap) 0 in
      Array.blit s.a 0 a 0 cap;
      s.a <- a
    end;
    if s.len = 0 || uid > s.a.(s.len - 1) then begin
      s.a.(s.len) <- uid;
      s.len <- s.len + 1
    end
    else begin
      let i = search s uid in
      if i >= s.len || s.a.(i) <> uid then begin
        Array.blit s.a i s.a (i + 1) (s.len - i);
        s.a.(i) <- uid;
        s.len <- s.len + 1
      end
    end

  let remove s uid =
    let i = search s uid in
    if i < s.len && s.a.(i) = uid then begin
      Array.blit s.a (i + 1) s.a i (s.len - i - 1);
      s.len <- s.len - 1
    end

  (* Fold smallest-uid-first. *)
  let fold_asc f s init =
    let acc = ref init in
    for i = 0 to s.len - 1 do
      acc := f s.a.(i) !acc
    done;
    !acc
end

type status = Open | Acked | Aborted of float

(* [Aborted] carries a payload, so [status] is not immediate; compare it
   by shape, never with polymorphic (=). *)
let is_open = function Open -> true | Acked | Aborted _ -> false

type 'msg instance = {
  uid : int;
  sender : int;
  body : 'msg;
  mutable status : status;
  delivered : (int, unit) Hashtbl.t; (* receivers already served *)
  pending : (int, Dsim.Sim.handle) Hashtbl.t; (* receiver -> delivery event *)
  mutable ack_handle : Dsim.Sim.handle option;
  (* The dual in force when the instance opened.  Terminate bookkeeping
     iterates the same G/G' neighborhoods bcast incremented, even if the
     schedule has since churned the unreliable layer. *)
  inst_dual : Graphs.Dual.t;
}

type 'msg t = {
  sim : Dsim.Sim.t;
  dual : Graphs.Dual.t; (* the base (union) dual; epoch-invariant queries *)
  dyn : Dyn.Dual.t option; (* time-varying G' schedule, consulted per bcast *)
  fack : float;
  fprog : float;
  eps_abort : float;
  policy : 'msg Mac_intf.policy;
  rng : Dsim.Rng.t;
  trace : Dsim.Trace.t option;
  msg_id : ('msg -> int) option; (* payload id for trace msg fields *)
  handlers : 'msg Mac_intf.handlers option array;
  busy : bool array;
  current : int option array; (* in-flight instance uid per node *)
  mutable next_uid : int;
  instances : (int, 'msg instance) Hashtbl.t; (* live instances by uid *)
  (* Per-receiver progress-watchdog state. *)
  connected_open : int array; (* open instances from G-neighbors *)
  cover : int array; (* open G'-instances that already delivered here *)
  contenders : Uidset.t array;
      (* open, not-yet-delivered-here instances from G'-neighbors *)
  watchdog : Dsim.Sim.handle option array;
  (* One watchdog callback per node, allocated on first use and reused for
     every rescheduling (watchdogs churn on each delivery/termination). *)
  watchdog_fn : (unit -> unit) option array;
  (* Likewise one [fc_has_received] probe per node, reused across every
     watchdog fire at that node. *)
  has_received_fn : ('msg -> bool) option array;
  received_bodies : ('msg, unit) Hashtbl.t array;
  (* Recycled instance tables: a broadcast's [delivered]/[pending] tables
     return here once the instance is discarded, so steady-state bcasts
     allocate no fresh buckets.  Reset before reuse; both tables are only
     ever traversed commutatively or probed by key, so a recycled bucket
     layout cannot influence any run. *)
  mutable pool_delivered : (int, unit) Hashtbl.t list;
  mutable pool_pending : (int, Dsim.Sim.handle) Hashtbl.t list;
  (* Epoch-stamped scratch for [validate_plan]: a slot is "marked" iff it
     holds the current epoch, so clearing between broadcasts is one
     integer bump instead of a fresh table per plan. *)
  mutable scratch_epoch : int;
  scratch_nbr : int array; (* marked = G'-neighbor of this plan's sender *)
  scratch_seen : int array; (* marked = receiver already in this plan *)
  mutable n_bcast : int;
  mutable n_rcv : int;
  mutable n_ack : int;
  mutable n_abort : int;
  mutable n_forced : int;
}

let record t event =
  match t.trace with
  | None -> ()
  | Some tr -> Dsim.Trace.record tr ~time:(Dsim.Sim.now t.sim) event

(* Call-site guard for [record]: OCaml evaluates arguments eagerly, so
   an unguarded call allocates the event record even with tracing off —
   on the deliver path that is an allocation per event. *)
let tracing t = Option.is_some t.trace

(* The trace [msg] field: the MMB payload id when a projection was given
   (so span derivation can link arrivals to broadcasts), else the uid. *)
let mid t ~uid body =
  match t.msg_id with Some f -> f body | None -> uid

let create ~sim ~dual ~fack ~fprog ~policy ~rng ?(eps_abort = 0.) ?dyn ?trace
    ?msg_id () =
  if not (0. < fprog && fprog <= fack) then
    invalid_arg "Standard_mac.create: need 0 < fprog <= fack";
  if eps_abort < 0. then
    invalid_arg "Standard_mac.create: need eps_abort >= 0";
  let n = Graphs.Dual.n dual in
  (match dyn with
  | Some d when Graphs.Dual.n (Dyn.Dual.base d) <> n ->
      invalid_arg "Standard_mac.create: dyn schedule is over a different node set"
  | _ -> ());
  {
    sim;
    dual;
    dyn;
    fack;
    fprog;
    eps_abort;
    policy;
    rng;
    trace;
    msg_id;
    handlers = Array.make n None;
    busy = Array.make n false;
    current = Array.make n None;
    next_uid = 0;
    instances = Hashtbl.create 256;
    connected_open = Array.make n 0;
    cover = Array.make n 0;
    contenders = Array.init n (fun _ -> Uidset.create ());
    watchdog = Array.make n None;
    watchdog_fn = Array.make n None;
    has_received_fn = Array.make n None;
    received_bodies = Array.init n (fun _ -> Hashtbl.create 16);
    pool_delivered = [];
    pool_pending = [];
    scratch_epoch = 0;
    scratch_nbr = Array.make n 0;
    scratch_seen = Array.make n 0;
    n_bcast = 0;
    n_rcv = 0;
    n_ack = 0;
    n_abort = 0;
    n_forced = 0;
  }

let attach t ~node handlers =
  (match t.handlers.(node) with
  | Some _ -> invalid_arg "Standard_mac.attach: node already attached"
  | None -> ());
  t.handlers.(node) <- Some handlers

let handlers_exn t node =
  match t.handlers.(node) with
  | Some h -> h
  | None ->
      raise
        (Not_well_formed (Printf.sprintf "node %d has no attached automaton" node))

let busy t ~node = t.busy.(node)
let sim t = t.sim

(* Environment-event injection: the sanctioned way for code above the MAC
   (problem harnesses, arrival schedules) to put work on the engine's
   timeline without reaching into Dsim.Sim directly (check A4). *)
let env_at t ~time f = ignore (Dsim.Sim.schedule_at t.sim ~time f)
let dual t = t.dual
let dyn t = t.dyn
let trace t = t.trace
let fack t = t.fack
let fprog t = t.fprog
let bcast_count t = t.n_bcast
let rcv_count t = t.n_rcv
let ack_count t = t.n_ack
let abort_count t = t.n_abort
let forced_count t = t.n_forced

(* --- Progress watchdog ------------------------------------------------- *)

let rec recheck_watchdog t j =
  let needed = t.connected_open.(j) > 0 && t.cover.(j) = 0 in
  match (needed, t.watchdog.(j)) with
  | true, Some _ | false, None -> ()
  | true, None ->
      let fn =
        match t.watchdog_fn.(j) with
        | Some fn -> fn
        | None ->
            let fn () = fire_watchdog t j in
            t.watchdog_fn.(j) <- Some fn;
            fn
      in
      let handle = Dsim.Sim.schedule ~cat:"mac.watchdog" t.sim ~delay:t.fprog fn in
      t.watchdog.(j) <- Some handle
  | false, Some handle ->
      Dsim.Sim.cancel t.sim handle;
      t.watchdog.(j) <- None

and fire_watchdog t j =
  t.watchdog.(j) <- None;
  if t.connected_open.(j) > 0 && t.cover.(j) = 0 then begin
    (* Ascending-uid traversal with a cons per candidate: descending-uid
       list, exactly what the old key-sorted Hashtbl snapshot produced —
       the order feeds the forced-choice policy, so it is load-bearing. *)
    let candidates =
      Uidset.fold_asc
        (fun uid acc ->
          match Hashtbl.find_opt t.instances uid with
          | None -> acc
          | Some inst when not (is_open inst.status) -> acc
          | Some inst ->
              {
                Mac_intf.cand_uid = inst.uid;
                cand_sender = inst.sender;
                cand_body = inst.body;
                cand_is_g_neighbor = Graphs.Dual.is_reliable t.dual inst.sender j;
              }
              :: acc)
        t.contenders.(j) []
    in
    match candidates with
    | [] ->
        (* Cannot happen: connected_open > 0 with cover = 0 implies an open,
           undelivered G-neighbor instance, which is a contender. *)
        assert false
    | _ ->
        let has_received =
          match t.has_received_fn.(j) with
          | Some fn -> fn
          | None ->
              let fn body = Hashtbl.mem t.received_bodies.(j) body in
              t.has_received_fn.(j) <- Some fn;
              fn
        in
        let ctx =
          {
            Mac_intf.fc_receiver = j;
            fc_now = Dsim.Sim.now t.sim;
            fc_candidates = candidates;
            fc_has_received = has_received;
            fc_rng = t.rng;
          }
        in
        let choice = t.policy.Mac_intf.pol_forced ctx in
        if not (List.exists (fun c -> c.Mac_intf.cand_uid = choice.Mac_intf.cand_uid) candidates)
        then invalid_arg "Standard_mac: forced choice not among candidates";
        (match Hashtbl.find_opt t.instances choice.Mac_intf.cand_uid with
        | None -> assert false
        | Some inst ->
            t.n_forced <- t.n_forced + 1;
            deliver t inst j)
  end

(* --- Deliveries --------------------------------------------------------- *)

and deliver t inst j =
  let deliverable =
    (not (Hashtbl.mem inst.delivered j))
    &&
    match inst.status with
    | Open -> true
    | Acked -> false
    | Aborted at ->
        (* Late deliveries of an aborted instance are allowed within the
           model's eps_abort window. *)
        Dsim.Sim.now t.sim <= at +. t.eps_abort +. 1e-12
  in
  if deliverable then begin
    (* A forced delivery cancels the still-scheduled planned one; when the
       planned event itself is firing, its handle is already dead and the
       cancel is a no-op — either way the stale [pending] binding is
       harmless (cancels of dead handles no-op), so no removal. *)
    (match Hashtbl.find_opt inst.pending j with
    | Some handle -> Dsim.Sim.cancel t.sim handle
    | None -> ());
    Hashtbl.replace inst.delivered j ();
    (* Progress-cover bookkeeping only concerns open instances: a
       terminated instance has already left the contend sets. *)
    if is_open inst.status then begin
      Uidset.remove t.contenders.(j) inst.uid;
      t.cover.(j) <- t.cover.(j) + 1;
      recheck_watchdog t j
    end;
    Hashtbl.replace t.received_bodies.(j) inst.body ();
    t.n_rcv <- t.n_rcv + 1;
    (* Delivered-set probe for the adversary's oracle: the receiver now
       knows this message. *)
    (match t.dyn with
    | None -> ()
    | Some dy ->
        Dyn.Dual.note_delivery dy ~node:j ~msg:(mid t ~uid:inst.uid inst.body));
    if tracing t then
      record t
        (Dsim.Trace.Rcv
           { node = j; msg = mid t ~uid:inst.uid inst.body; instance = inst.uid });
    (handlers_exn t j).Mac_intf.on_rcv ~src:inst.sender inst.body
  end

(* Shared bookkeeping for both terminating events: update watchdog state
   and free the sender.  [keep_late_deliveries] preserves pending delivery
   events that fall inside the eps_abort window. *)
let terminate t inst ~keep_late_deliveries =
  let now = Dsim.Sim.now t.sim in
  (match inst.ack_handle with
  | Some h ->
      Dsim.Sim.cancel t.sim h;
      inst.ack_handle <- None
  | None -> ());
  if not keep_late_deliveries then begin
    (* Cancelling is one liveness-bit write per handle; the effects
       commute, so hash-order traversal cannot perturb the run. *)
    Dsim.Tbl.iter_commutative
      (fun _receiver handle -> Dsim.Sim.cancel t.sim handle)
      inst.pending;
    Hashtbl.reset inst.pending;
    Hashtbl.remove t.instances inst.uid
  end;
  Array.iter
    (fun j ->
      t.connected_open.(j) <- t.connected_open.(j) - 1;
      recheck_watchdog t j)
    (Graphs.Graph.neighbors (Graphs.Dual.reliable inst.inst_dual) inst.sender);
  Array.iter
    (fun j ->
      if Hashtbl.mem inst.delivered j then begin
        t.cover.(j) <- t.cover.(j) - 1;
        recheck_watchdog t j
      end
      else begin
        Uidset.remove t.contenders.(j) inst.uid;
        recheck_watchdog t j
      end)
    (Graphs.Graph.neighbors (Graphs.Dual.unreliable inst.inst_dual) inst.sender);
  t.busy.(inst.sender) <- false;
  t.current.(inst.sender) <- None;
  if not keep_late_deliveries then begin
    (* The instance is unreachable now (gone from [t.instances], pending
       all cancelled, contend sets purged above) — recycle its tables. *)
    Hashtbl.reset inst.delivered;
    t.pool_delivered <- inst.delivered :: t.pool_delivered;
    t.pool_pending <- inst.pending :: t.pool_pending
  end;
  ignore now

let ack t inst =
  inst.status <- Acked;
  terminate t inst ~keep_late_deliveries:false;
  t.n_ack <- t.n_ack + 1;
  if tracing t then
    record t
      (Dsim.Trace.Ack
         {
           node = inst.sender;
           msg = mid t ~uid:inst.uid inst.body;
           instance = inst.uid;
         });
  (handlers_exn t inst.sender).Mac_intf.on_ack inst.body

let abort t ~node =
  (match t.current.(node) with
  | None ->
      raise
        (Not_well_formed
           (Printf.sprintf "node %d aborted with no broadcast in flight" node))
  | Some uid -> (
      match Hashtbl.find_opt t.instances uid with
      | None -> assert false
      | Some inst ->
          inst.status <- Aborted (Dsim.Sim.now t.sim);
          (* With eps_abort = 0, [terminate ~keep_late_deliveries:false]
             cancels every pending delivery; with eps_abort > 0 they are
             kept and [deliver] applies the window cutoff at fire time. *)
          terminate t inst ~keep_late_deliveries:(t.eps_abort > 0.);
          t.n_abort <- t.n_abort + 1;
          if tracing t then
            record t
              (Dsim.Trace.Abort
                 {
                   node;
                   msg = mid t ~uid:inst.uid inst.body;
                   instance = inst.uid;
                 });
          if t.eps_abort > 0. then begin
            (* Drop the instance record once the late window has passed. *)
            ignore
              (Dsim.Sim.schedule ~cat:"mac.abort_gc" t.sim
                 ~delay:(t.eps_abort +. 1e-9) (fun () ->
                   Dsim.Tbl.iter_commutative
                     (fun _ handle -> Dsim.Sim.cancel t.sim handle)
                     inst.pending;
                   Hashtbl.reset inst.pending;
                   Hashtbl.remove t.instances inst.uid;
                   Hashtbl.reset inst.delivered;
                   t.pool_delivered <- inst.delivered :: t.pool_delivered;
                   t.pool_pending <- inst.pending :: t.pool_pending))
          end))

(* --- Plan validation ---------------------------------------------------- *)

let validate_plan t ~dual ~sender (plan : Mac_intf.plan) =
  let { Mac_intf.ack_delay; deliveries } = plan in
  if not (0. <= ack_delay && ack_delay <= t.fack) then
    invalid_arg
      (Printf.sprintf "Standard_mac: plan ack_delay %g outside [0, %g]"
         ack_delay t.fack);
  let n = Graphs.Dual.n dual in
  t.scratch_epoch <- t.scratch_epoch + 1;
  let epoch = t.scratch_epoch in
  Array.iter
    (fun j -> t.scratch_nbr.(j) <- epoch)
    (Graphs.Graph.neighbors (Graphs.Dual.unreliable dual) sender);
  List.iter
    (fun { Mac_intf.receiver; delay } ->
      if receiver < 0 || receiver >= n then
        invalid_arg "Standard_mac: plan delivers to a non-G'-neighbor";
      if t.scratch_seen.(receiver) = epoch then
        invalid_arg "Standard_mac: plan delivers twice to one receiver";
      t.scratch_seen.(receiver) <- epoch;
      if t.scratch_nbr.(receiver) <> epoch then
        invalid_arg "Standard_mac: plan delivers to a non-G'-neighbor";
      if not (0. <= delay && delay <= ack_delay) then
        invalid_arg "Standard_mac: plan delivery delay outside [0, ack_delay]")
    deliveries;
  Array.iter
    (fun j ->
      if t.scratch_seen.(j) <> epoch then
        invalid_arg "Standard_mac: plan misses a G-neighbor")
    (Graphs.Graph.neighbors (Graphs.Dual.reliable dual) sender)

(* --- Broadcast ---------------------------------------------------------- *)

let bcast t ~node body =
  ignore (handlers_exn t node);
  if t.busy.(node) then
    raise
      (Not_well_formed
         (Printf.sprintf "node %d broadcast before previous ack" node));
  let uid = t.next_uid in
  t.next_uid <- uid + 1;
  t.busy.(node) <- true;
  t.n_bcast <- t.n_bcast + 1;
  (* Delivery-plan-time consult of the schedule: note the probe and step
     to the epoch in force now, BEFORE the Bcast event is recorded, so
     trace subscribers (the compliance checker) observing at Bcast time
     see the epoch-current adjacency through the read-only Dyn.Dual.current. *)
  let dual =
    match t.dyn with
    | None -> t.dual
    | Some dy ->
        Dyn.Dual.note_bcast dy ~node ~msg:(mid t ~uid body);
        Dyn.Dual.view dy ~time:(Dsim.Sim.now t.sim)
  in
  if tracing t then
    record t (Dsim.Trace.Bcast { node; msg = mid t ~uid body; instance = uid });
  let g_neighbors = Graphs.Graph.neighbors (Graphs.Dual.reliable dual) node in
  let g'_neighbors = Graphs.Graph.neighbors (Graphs.Dual.unreliable dual) node in
  (* Precomputed at Dual construction; same ascending order the
     per-broadcast filter used to produce. *)
  let g'_only = Graphs.Dual.g'_only_neighbors dual node in
  let ctx =
    {
      Mac_intf.bc_sender = node;
      bc_uid = uid;
      bc_body = body;
      bc_now = Dsim.Sim.now t.sim;
      bc_g_neighbors = g_neighbors;
      bc_g'_only_neighbors = g'_only;
      bc_fack = t.fack;
      bc_fprog = t.fprog;
      bc_rng = t.rng;
    }
  in
  let plan = t.policy.Mac_intf.pol_plan ctx in
  validate_plan t ~dual ~sender:node plan;
  let delivered =
    match t.pool_delivered with
    | tbl :: rest ->
        t.pool_delivered <- rest;
        tbl
    | [] -> Hashtbl.create 8
  in
  let pending =
    match t.pool_pending with
    | tbl :: rest ->
        t.pool_pending <- rest;
        tbl
    | [] -> Hashtbl.create 8
  in
  let inst =
    { uid; sender = node; body; status = Open; delivered; pending;
      ack_handle = None; inst_dual = dual }
  in
  Hashtbl.replace t.instances uid inst;
  t.current.(node) <- Some uid;
  Array.iter
    (fun j -> Uidset.add t.contenders.(j) uid)
    g'_neighbors;
  Array.iter
    (fun j ->
      t.connected_open.(j) <- t.connected_open.(j) + 1;
      recheck_watchdog t j)
    g_neighbors;
  (* Deliveries are scheduled before the ack so that equal-timestamp
     deliveries execute first (the heap is FIFO-stable), preserving
     ack correctness. *)
  List.iter
    (fun { Mac_intf.receiver; delay } ->
      let handle =
        Dsim.Sim.schedule ~cat:"mac.deliver" t.sim ~delay (fun () ->
            deliver t inst receiver)
      in
      Hashtbl.replace inst.pending receiver handle)
    plan.Mac_intf.deliveries;
  inst.ack_handle <-
    Some
      (Dsim.Sim.schedule ~cat:"mac.ack" t.sim ~delay:plan.Mac_intf.ack_delay
         (fun () -> ack t inst))
