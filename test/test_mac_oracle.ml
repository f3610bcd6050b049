(* MAC differential oracle: [Amac.Standard_mac] against [Ref_standard_mac]
   (the engine before its per-broadcast state moved to slot arrays),
   driven by the same random bcast/abort schedule on the same random
   small dual.  Every trace entry, the MAC's five counters and the
   engine's push/cancel/event counts must agree: the slot layout is
   bookkeeping only and may not change a single decision. *)

module type MAC = sig
  type 'msg t

  val create :
    sim:Dsim.Sim.t ->
    dual:Graphs.Dual.t ->
    fack:float ->
    fprog:float ->
    policy:'msg Amac.Mac_intf.policy ->
    rng:Dsim.Rng.t ->
    ?eps_abort:float ->
    ?dyn:Dyn.Dual.t ->
    ?trace:Dsim.Trace.t ->
    ?msg_id:('msg -> int) ->
    unit ->
    'msg t

  val attach : 'msg t -> node:int -> 'msg Amac.Mac_intf.handlers -> unit
  val bcast : 'msg t -> node:int -> 'msg -> unit
  val busy : 'msg t -> node:int -> bool
  val abort : 'msg t -> node:int -> unit
  val bcast_count : 'msg t -> int
  val rcv_count : 'msg t -> int
  val ack_count : 'msg t -> int
  val abort_count : 'msg t -> int
  val forced_count : 'msg t -> int
end

let fack = Test_compliance_oracle.fack
let fprog = Test_compliance_oracle.fprog

let policy_name = function
  | 0 -> "eager"
  | 1 -> "random_compliant"
  | 2 -> "adversarial"
  | 3 -> "round-sync minimal"
  | _ -> "round-sync generous"

let make_policy = function
  | 0 -> Amac.Schedulers.eager ()
  | 1 -> Amac.Schedulers.random_compliant ()
  | 2 -> Amac.Schedulers.adversarial ()
  | 3 -> Amac.Round_sync.policy ~mode:Amac.Round_sync.Minimal
  | _ -> Amac.Round_sync.policy ~mode:Amac.Round_sync.Generous

type outcome = {
  entries : Dsim.Trace.entry list;
  counts : int list; (* bcast, rcv, ack, abort, forced *)
  engine : int list; (* pushes, cancelled, executed *)
}

module Drive (M : MAC) = struct
  (* The environment draws from its own stream, so its choices depend on
     the MAC only through [busy], which both engines must agree on. *)
  let run ~seed ~policy ~eps_abort ~churn =
    let dual = Test_compliance_oracle.random_dual (Dsim.Rng.create ~seed) in
    let n = Graphs.Dual.n dual in
    let sim = Dsim.Sim.create () in
    let trace = Dsim.Trace.create () in
    let dyn =
      if churn then Some (Test_compliance_oracle.churned ~seed dual) else None
    in
    let mac =
      M.create ~sim ~dual ~fack ~fprog ~policy:(make_policy policy)
        ~rng:(Dsim.Rng.create ~seed:(seed + 1))
        ~eps_abort ?dyn ~trace ()
    in
    let env = Dsim.Rng.create ~seed:(seed + 2) in
    (* Few distinct bodies, so forced choices meet repeated payloads. *)
    let body () = Dsim.Rng.int env 4 in
    for node = 0 to n - 1 do
      M.attach mac ~node
        {
          Amac.Mac_intf.on_rcv = (fun ~src:_ _ -> ());
          on_ack =
            (fun _ -> if Dsim.Rng.bool env then M.bcast mac ~node (body ()));
        }
    done;
    let time = ref 0. in
    for _ = 1 to 40 do
      time := !time +. Dsim.Rng.float env 1.5;
      let node = Dsim.Rng.int env n in
      ignore
        (Dsim.Sim.schedule_at sim ~time:!time (fun () ->
             if not (M.busy mac ~node) then M.bcast mac ~node (body ())
             else if Dsim.Rng.bool env then M.abort mac ~node))
    done;
    ignore (Dsim.Sim.run sim);
    {
      entries = Dsim.Trace.entries trace;
      counts =
        [ M.bcast_count mac; M.rcv_count mac; M.ack_count mac;
          M.abort_count mac; M.forced_count mac ];
      engine =
        [ Dsim.Sim.heap_pushes sim; Dsim.Sim.cancelled_events sim;
          Dsim.Sim.executed_events sim ];
    }
end

module New = Drive (Amac.Standard_mac)
module Old = Drive (Ref_standard_mac)

let arb_case =
  QCheck.make
    ~print:(fun (seed, policy, eps, churn) ->
      Printf.sprintf "seed=%d policy=%s eps_abort=%g churn=%b" seed
        (policy_name policy)
        (if eps then 0.5 else 0.)
        churn)
    QCheck.Gen.(quad (int_bound 100_000) (int_bound 4) bool bool)

let show_ints l = String.concat "," (List.map string_of_int l)

let jsonl entries =
  let tr = Dsim.Trace.create () in
  List.iter
    (fun { Dsim.Trace.time; event } -> Dsim.Trace.record tr ~time event)
    entries;
  Dsim.Trace_io.to_jsonl tr

let prop_same_execution =
  QCheck.Test.make ~name:"slot-array MAC = reference MAC (trace, counts)"
    ~count:400 arb_case (fun (seed, policy, eps, churn) ->
      let eps_abort = if eps then 0.5 else 0. in
      let a = Old.run ~seed ~policy ~eps_abort ~churn in
      let b = New.run ~seed ~policy ~eps_abort ~churn in
      if a.entries <> b.entries then
        QCheck.Test.fail_reportf
          "traces differ:\nreference:\n%s\nslot arrays:\n%s" (jsonl a.entries)
          (jsonl b.entries)
      else if a.counts <> b.counts then
        QCheck.Test.fail_reportf "MAC counts differ: %s vs %s"
          (show_ints a.counts) (show_ints b.counts)
      else if a.engine <> b.engine then
        QCheck.Test.fail_reportf "engine counts differ: %s vs %s"
          (show_ints a.engine) (show_ints b.engine)
      else true)

let suite =
  [
    ( "amac.mac-oracle",
      [ QCheck_alcotest.to_alcotest prop_same_execution ] );
  ]
