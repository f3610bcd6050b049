(** The abstract MAC layer axioms (Section 3.2.1), checked as a stream.

    Feed every trace entry through {!on_entry} (typically via
    {!Dsim.Trace.subscribe}) and call {!finish} once at the end of the
    run; {!audit} is the same checker replayed over a recorded trace.
    Given the dual graph the execution ran on, it checks:

    + {b receive correctness} — every [rcv] goes to a G'-neighbor of the
      instance's sender, at most one [rcv] per (instance, receiver), and no
      [rcv] after the instance's [ack] (after an [abort], up to [eps_abort]
      of slack is allowed, as in the model);
    + {b ack correctness} — an instance's [ack] is preceded by a [rcv] at
      every G-neighbor of the sender, and each instance has at most one
      terminating event;
    + {b termination} — every [bcast] has a terminating event (skipped for
      instances still open at the horizon when [allow_open]);
    + {b acknowledgment bound} — [ack] within [fack] of the [bcast];
    + {b progress bound} — for every receiver [j] and every window
      [(x, x+fprog]] wholly spanned by an open instance from a G-neighbor
      of [j], some [rcv] at [j] occurs by the window's end from an instance
      whose terminating event does not precede the window's start.

    Entries must arrive in time order, as every recorded trace does.  Each
    violation is reported the moment it is detectable: local rules on the
    offending entry, the progress bound on each connected span when its
    instance terminates (a still-open contender's coverage extends to
    [+inf], which later entries cannot contradict because they cannot
    start before the current time), termination at {!finish}.

    The checker is the independent half of model fidelity: the engines are
    built to satisfy the axioms, and this module verifies that they did on
    each concrete execution.  Not applicable to FMMB traces: the
    round-based stages use a fresh engine each (instance uids and times
    restart per stage). *)

type violation = {
  rule : string;  (** short rule identifier, e.g. "receive-correctness" *)
  detail : string;  (** human-readable description *)
}

type event =
  | Violation of Dsim.Trace.entry option * violation
      (** with the entry being processed ([None] for findings at
          {!finish}) *)
  | Churned  (** a delivery explained by the epoch schedule *)
  | Progress_gap of float
      (** an empirical starvation gap closed: how long a receiver with an
          open reliable-neighbor instance waited with no live covering
          delivery.  The maximum is the empirical Fprog, the quantity
          {!Estimate} recovers by binary search. *)

type t

val create :
  dual:Graphs.Dual.t ->
  fack:float ->
  fprog:float ->
  ?eps_abort:float ->
  ?dyn:Dyn.Dual.t ->
  ?on_event:(event -> unit) ->
  unit ->
  t
(** [eps_abort] defaults to [0.].  [on_event] fires synchronously for
    every {!event}.

    [dyn] enables the epoch-aware axiom variants for time-varying
    unreliable layers ([dual] must then be the schedule's base/union
    dual).  The checker never steps epochs (check A6); it pins, per
    instance at [Bcast] time, the epoch-current G' through the
    read-only [Dyn.Dual.current] — the MAC advances the epoch just
    before recording the event — and classifies a delivery outside the
    pinned G' but inside the union G' as churned ({!churned_count})
    instead of a receive-correctness violation.  A delivery outside
    even the union is still a violation; the other rules quantify over
    G, which schedules never touch. *)

val on_entry : t -> Dsim.Trace.entry -> unit

val finish : ?allow_open:bool -> t -> violation list
(** Close the run: instances still open are checked against the last
    observed event time (and flagged as termination violations unless
    [allow_open], default [false]), and open starvation windows close as
    {!Progress_gap} events.  Returns all violations, detection order.
    Idempotent. *)

val violations : t -> violation list
(** Violations so far, detection order. *)

val violation_count : t -> int
val churned_count : t -> int

val audit :
  dual:Graphs.Dual.t ->
  fack:float ->
  fprog:float ->
  ?eps_abort:float ->
  ?allow_open:bool ->
  Dsim.Trace.t ->
  violation list
(** Replay a recorded trace through a fresh checker: {!create},
    {!on_entry} on every entry, {!finish}.  Empty result means the trace
    is compliant.  There is no [?dyn]: a replay cannot recover which
    epoch was current at each [Bcast], so the static axioms are checked
    against the union G'. *)

val pp_violation : Format.formatter -> violation -> unit
