(** Concrete resolutions of the MAC scheduler's non-determinism.

    Each value instantiates the arbitrary message scheduler of the model at
    a different point of its envelope:

    - {!eager} — the friendliest scheduler: immediate deliveries everywhere,
      immediate acks.  Best-case baseline.
    - {!random_compliant} — delays drawn uniformly inside the allowed
      windows, unreliable edges flipped with probability [p_unreliable];
      the engine's watchdog supplies any progress deliveries the random
      draws miss.  "Average-case" behavior.
    - {!adversarial} — the Theorem-3.1 regime: every ack stalls for the full
      [fack], reliable deliveries arrive at the last allowed moment, no
      voluntary unreliable deliveries; when the progress watchdog forces a
      delivery the policy picks a message the receiver has already seen
      (wasting the delivery) or, failing that, one from an unreliable-only
      edge (injecting an out-of-pipeline message from far away). *)

val deliveries_at :
  float -> int array -> Mac_intf.delivery list -> Mac_intf.delivery list
(** [deliveries_at delay receivers tail] plans one delivery at [delay] to
    each of [receivers], in array order, ahead of [tail]: a plan's
    delivery list built with no intermediate copies. *)

val eager : ?latency_frac:float -> unit -> 'msg Mac_intf.policy
(** [latency_frac] (default [0.1]) scales deliveries/acks to
    [latency_frac *. fprog]. *)

val random_compliant : ?p_unreliable:float -> unit -> 'msg Mac_intf.policy
(** [p_unreliable] (default [0.5]) is the chance each G'-only neighbor
    receives a given broadcast. *)

val adversarial : unit -> 'msg Mac_intf.policy

val bursty : ?p_bad:float -> ?p_good:float -> unit -> 'msg Mac_intf.policy
(** Like {!random_compliant}, but each unreliable edge follows a
    Gilbert-Elliott two-state chain (advanced once per broadcast planned
    over it): bursts of deliveries alternate with dead stretches — the
    temporal correlation real flaky links exhibit.  [p_bad] (default
    [0.15]) is the Good→Bad transition probability, [p_good] (default
    [0.1]) the recovery probability. *)

val name : 'msg Mac_intf.policy -> string

val all_standard : unit -> (string * (unit -> int Mac_intf.policy)) list
(** The built-in policies, by name, for sweep harnesses (monomorphized to
    [int] bodies as used by BMMB). *)
