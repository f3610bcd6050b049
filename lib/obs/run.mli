(** Observed runs: {!Mmb.Runner} entry points plus the observability
    wiring.

    The protocol layer sits below this one in the layer DAG (check A1),
    so [Mmb.Runner] cannot reference observers or the global engine-cost
    registry; it exposes an {!Mmb.Instrument} seam instead.  These
    wrappers mirror the runner's signatures, build the instrument, and:

    - fold every run's engine and MAC counters into {!Global}
      (continuous-time runs — what the benchmark sidecars and the
      campaign runner's per-job deltas measure);
    - with [?obs], attach the observer: spans and the streaming
      compliance checker subscribe to the MAC's event stream, engine
      gauges are wired, and the observer is finished with [allow_open]
      set iff the run did not drain.

    Call [Mmb.Runner] directly when none of that is wanted. *)

val bmmb :
  dual:Graphs.Dual.t ->
  fack:float ->
  fprog:float ->
  policy:int Amac.Mac_intf.policy ->
  assignment:Mmb.Problem.assignment ->
  seed:int ->
  ?discipline:Mmb.Bmmb.discipline ->
  ?check_compliance:bool ->
  ?max_events:int ->
  ?dyn:Dyn.Dual.t ->
  ?obs:Observer.t ->
  ?setup:(Dsim.Sim.t -> unit) ->
  unit ->
  Mmb.Runner.bmmb_result
(** [dyn] as in {!Mmb.Runner.run_bmmb}; pass the same wrapper to the
    observer ({!Observer.create}'s [?dyn]) for epoch-aware monitoring. *)

val bmmb_online :
  dual:Graphs.Dual.t ->
  fack:float ->
  fprog:float ->
  policy:int Amac.Mac_intf.policy ->
  arrivals:Mmb.Problem.timed_assignment ->
  seed:int ->
  ?discipline:Mmb.Bmmb.discipline ->
  ?check_compliance:bool ->
  ?max_events:int ->
  ?dyn:Dyn.Dual.t ->
  ?obs:Observer.t ->
  ?setup:(Dsim.Sim.t -> unit) ->
  unit ->
  Mmb.Runner.online_result

val fmmb :
  dual:Graphs.Dual.t ->
  fprog:float ->
  c:float ->
  policy:Mmb.Fmmb_msg.t Amac.Enhanced_mac.round_policy ->
  assignment:Mmb.Problem.assignment ->
  seed:int ->
  ?backend:Mmb.Fmmb.backend ->
  ?params:Mmb.Fmmb.params ->
  ?max_spread_phases:int ->
  ?obs:Observer.t ->
  ?attach:(Dsim.Trace.t -> unit) ->
  unit ->
  Mmb.Runner.fmmb_result
(** With [obs], the problem-level [Arrive]/[Deliver] lifecycle feeds the
    observer's spans (stage-granular times).  The streaming compliance
    checker does not apply to FMMB (per-stage engines restart instance
    uids and clocks); create the observer without [dual].  FMMB's round
    backends have no engine, so nothing is folded into {!Global}.

    [attach] receives the retention-free lifecycle trace before the run,
    for subscribing streaming consumers ({!Tracing.Sim},
    {!Provenance}) without an observer. *)
