(* Compliance-checker oracle: the streaming [Amac.Compliance] replayed
   by [audit] against a reference copy of the original three-pass
   post-hoc auditor, on engine executions over random small duals and on
   time-order-preserving corruptions of them.  The two must report the
   same multiset of (rule, detail) findings; only the order may differ. *)

(* --- Reference (the original three-pass auditor, verbatim) --- *)

module Ref = struct
  type violation = { rule : string; detail : string }

  let pp_violation ppf { rule; detail } = Fmt.pf ppf "[%s] %s" rule detail

  type inst = {
    sender : int;
    bcast_time : float;
    mutable term : (float * int * [ `Ack | `Abort ]) option;
    mutable rcvs : (int * float * int) list; (* receiver, time, trace index *)
  }

  let violation rule fmt = Format.kasprintf (fun detail -> { rule; detail }) fmt

  (* Merge closed intervals and test whether [lo, hi] is fully covered. *)
  let covered intervals ~lo ~hi ~tol =
    let sorted =
      List.sort (fun (a, _) (b, _) -> Float.compare a b)
        (List.filter (fun (a, b) -> b >= a) intervals)
    in
    let rec sweep point = function
      | [] -> point >= hi -. tol
      | (a, b) :: rest ->
          if point >= hi -. tol then true
          else if a > point +. tol then false
          else sweep (Float.max point b) rest
    in
    sweep lo sorted

  let audit ~dual ~fack ~fprog ?(eps_abort = 0.) ?(allow_open = false) trace =
    let g = Graphs.Dual.reliable dual in
    let g' = Graphs.Dual.unreliable dual in
    let tol = 1e-9 *. Float.max 1. fack in
    let entries = Array.of_list (Dsim.Trace.entries trace) in
    let end_time =
      Array.fold_left (fun acc e -> Float.max acc e.Dsim.Trace.time) 0. entries
    in
    let insts : (int, inst) Hashtbl.t = Hashtbl.create 256 in
    let violations = ref [] in
    let add v = violations := v :: !violations in
    (* Pass 1: build per-instance records, checking local rules on the way. *)
    Array.iteri
      (fun idx { Dsim.Trace.time; event } ->
        match event with
        | Dsim.Trace.Arrive _ | Dsim.Trace.Deliver _ -> ()
        | Dsim.Trace.Bcast { node; instance; _ } ->
            if Hashtbl.mem insts instance then
              add
                (violation "cause-function" "instance %d broadcast twice"
                   instance)
            else
              Hashtbl.replace insts instance
                { sender = node; bcast_time = time; term = None; rcvs = [] }
        | Dsim.Trace.Rcv { node; instance; _ } -> (
            match Hashtbl.find_opt insts instance with
            | None ->
                add
                  (violation "cause-function"
                     "rcv at node %d from unknown instance %d" node instance)
            | Some inst ->
                if inst.sender = node then
                  add
                    (violation "receive-correctness"
                       "instance %d delivered to its own sender %d" instance
                       node);
                if not (Graphs.Graph.mem_edge g' inst.sender node) then
                  add
                    (violation "receive-correctness"
                       "instance %d delivered to %d, not a G'-neighbor of \
                        sender %d"
                       instance node inst.sender);
                if List.exists (fun (r, _, _) -> r = node) inst.rcvs then
                  add
                    (violation "receive-correctness"
                       "instance %d delivered twice to node %d" instance node);
                (match inst.term with
                | Some (tt, tidx, `Ack) when tidx < idx ->
                    add
                      (violation "receive-correctness"
                         "instance %d delivered to %d at %g after its ack at %g"
                         instance node time tt)
                | Some (tt, tidx, `Abort)
                  when tidx < idx && time > tt +. eps_abort +. tol ->
                    add
                      (violation "receive-correctness"
                         "instance %d delivered to %d at %g, more than \
                          eps_abort after abort at %g"
                         instance node time tt)
                | _ -> ());
                inst.rcvs <- (node, time, idx) :: inst.rcvs)
        | Dsim.Trace.Ack { node; instance; _ } -> (
            match Hashtbl.find_opt insts instance with
            | None ->
                add
                  (violation "cause-function" "ack for unknown instance %d"
                     instance)
            | Some inst ->
                if inst.sender <> node then
                  add
                    (violation "cause-function"
                       "ack of instance %d at node %d, but sender is %d"
                       instance node inst.sender);
                (match inst.term with
                | Some _ ->
                    add
                      (violation "ack-correctness"
                         "instance %d has two terminating events" instance)
                | None -> inst.term <- Some (time, idx, `Ack));
                if time -. inst.bcast_time > fack +. tol then
                  add
                    (violation "ack-bound"
                       "instance %d acked %g after bcast (Fack = %g)" instance
                       (time -. inst.bcast_time)
                       fack))
        | Dsim.Trace.Abort { node; instance; _ } -> (
            match Hashtbl.find_opt insts instance with
            | None ->
                add
                  (violation "cause-function" "abort for unknown instance %d"
                     instance)
            | Some inst ->
                if inst.sender <> node then
                  add
                    (violation "cause-function"
                       "abort of instance %d at node %d, but sender is %d"
                       instance node inst.sender);
                (match inst.term with
                | Some _ ->
                    add
                      (violation "ack-correctness"
                         "instance %d has two terminating events" instance)
                | None -> inst.term <- Some (time, idx, `Abort))))
      entries;
    (* Pass 2: per-instance global rules.  Sorted by uid so the violation
       list (and hence audit output) is stable across runs. *)
    Dsim.Tbl.sorted_iter ~cmp:Int.compare
      (fun uid inst ->
        match inst.term with
        | None ->
            if not allow_open then
              add
                (violation "termination" "instance %d never terminated" uid)
        | Some (_, tidx, `Ack) ->
            Array.iter
              (fun j ->
                let got =
                  List.exists (fun (r, _, ridx) -> r = j && ridx < tidx) inst.rcvs
                in
                if not got then
                  add
                    (violation "ack-correctness"
                       "instance %d acked before delivering to G-neighbor %d"
                       uid j))
              (Graphs.Graph.neighbors g inst.sender)
        | Some (_, _, `Abort) -> ())
      insts;
    (* Pass 3: the progress bound, receiver by receiver. *)
    let n = Graphs.Dual.n dual in
    let spans = Array.make n [] (* connected-instance spans per receiver *)
    and coverage = Array.make n [] (* contend-rcv coverage x-intervals *) in
    Dsim.Tbl.sorted_iter ~cmp:Int.compare
      (fun _ inst ->
        let term_time =
          match inst.term with Some (tt, _, _) -> tt | None -> end_time
        in
        Array.iter
          (fun j -> spans.(j) <- (inst.bcast_time, term_time) :: spans.(j))
          (Graphs.Graph.neighbors g inst.sender);
        List.iter
          (fun (j, rcv_time, _) ->
            let term_for_contend =
              match inst.term with Some (tt, _, _) -> tt | None -> infinity
            in
            coverage.(j) <-
              (rcv_time -. fprog, term_for_contend) :: coverage.(j))
          inst.rcvs)
      insts;
    for j = 0 to n - 1 do
      List.iter
        (fun (b, e) ->
          let hi = e -. fprog in
          if hi -. b > tol then
            if not (covered coverage.(j) ~lo:b ~hi ~tol) then
              add
                (violation "progress-bound"
                   "receiver %d starved during [%g, %g] (connected span [%g, \
                    %g], Fprog = %g)"
                   j b hi b e fprog))
        spans.(j)
    done;
    List.rev !violations
end

let key_ref (v : Ref.violation) = (v.Ref.rule, v.Ref.detail)
let key (v : Amac.Compliance.violation) = (v.Amac.Compliance.rule, v.detail)

(* The reference's findings on a trace, sorted: what every replay of the
   streaming checker must reproduce. *)
let reference ~dual ~fack ~fprog ?eps_abort ?allow_open tr =
  List.sort compare
    (List.map key_ref (Ref.audit ~dual ~fack ~fprog ?eps_abort ?allow_open tr))

let streamed ~dual ~fack ~fprog ?eps_abort ?allow_open tr =
  List.sort compare
    (List.map key
       (Amac.Compliance.audit ~dual ~fack ~fprog ?eps_abort ?allow_open tr))

let fack = 6.
let fprog = 1.

(* A random small dual (3-9 nodes): a line, ring, star or G(n, 0.4)
   reliable graph plus up to five unreliable edges. *)
let random_dual rng =
  let n = 3 + Dsim.Rng.int rng 7 in
  let g =
    match Dsim.Rng.int rng 4 with
    | 0 -> Graphs.Gen.line n
    | 1 -> Graphs.Gen.ring n
    | 2 -> Graphs.Gen.star n
    | _ -> Graphs.Gen.gnp rng ~n ~p:0.4
  in
  Graphs.Dual.arbitrary_random rng ~g ~extra:(Dsim.Rng.int rng 6)

(* A fresh churn schedule over [dual]'s unreliable layer. *)
let churned ~seed dual =
  Dyn.Dual.of_schedule
    (Dyn.Schedule.churn ~base:dual ~epoch_len:2. ~rate:0.5 ~seed)

(* A BMMB execution on a random small dual, under one of the three
   standard policies, over a static or a churned unreliable layer. *)
let execution ~seed ~policy ~churn =
  let rng = Dsim.Rng.create ~seed in
  let dual = random_dual rng in
  let n = Graphs.Dual.n dual in
  let dyn = if churn then Some (churned ~seed dual) else None in
  let policy =
    match policy with
    | 0 -> Amac.Schedulers.eager ()
    | 1 -> Amac.Schedulers.random_compliant ()
    | _ -> Amac.Schedulers.adversarial ()
  in
  let res =
    Mmb.Runner.run_bmmb ~dual ~fack ~fprog ~policy
      ~assignment:(Mmb.Problem.random rng ~n ~k:(1 + Dsim.Rng.int rng 3))
      ~seed ~check_compliance:true ?dyn ()
  in
  match res.Mmb.Runner.trace with
  | Some tr -> (rng, dual, Dsim.Trace.entries tr)
  | None -> failwith "no trace recorded"

let nth_matching pick p entries =
  let hits = List.filter p entries in
  match hits with
  | [] -> None
  | _ -> Some (List.nth hits (pick (List.length hits)))

let is_rcv e = match e.Dsim.Trace.event with Dsim.Trace.Rcv _ -> true | _ -> false
let is_ack e = match e.Dsim.Trace.event with Dsim.Trace.Ack _ -> true | _ -> false

(* Time-order-preserving corruptions.  Entries are compared physically,
   so exactly the chosen entry is touched. *)
let mutate rng dual kind entries =
  let pick k = Dsim.Rng.int rng k in
  let map_victim p f =
    match nth_matching pick p entries with
    | None -> entries
    | Some v -> List.concat_map (fun e -> if e == v then f e else [ e ]) entries
  in
  match kind with
  | 1 -> (* drop a rcv *) map_victim is_rcv (fun _ -> [])
  | 2 ->
      (* re-address a rcv to a node outside the sender's G' *)
      let g' = Graphs.Dual.unreliable dual in
      let sender instance =
        List.find_map
          (fun e ->
            match e.Dsim.Trace.event with
            | Dsim.Trace.Bcast { node; instance = i; _ } when i = instance ->
                Some node
            | _ -> None)
          entries
      in
      map_victim is_rcv (fun e ->
          match e.Dsim.Trace.event with
          | Dsim.Trace.Rcv { msg; instance; _ } -> (
              let s = Option.get (sender instance) in
              match
                List.find_opt
                  (fun v -> v <> s && not (Graphs.Graph.mem_edge g' s v))
                  (List.init (Graphs.Graph.n g') Fun.id)
              with
              | Some node ->
                  [ { e with Dsim.Trace.event = Dsim.Trace.Rcv { node; msg; instance } } ]
              | None -> [ e ])
          | _ -> [ e ])
  | 3 -> (* drop an ack *) map_victim is_ack (fun _ -> [])
  | 4 -> (* duplicate a rcv in place *) map_victim is_rcv (fun e -> [ e; e ])
  | 5 ->
      (* truncate: instances left open at the horizon *)
      List.filteri (fun i _ -> i < pick (List.length entries + 1)) entries
  | _ -> entries

let rebuild entries =
  let tr = Dsim.Trace.create () in
  List.iter
    (fun { Dsim.Trace.time; event } -> Dsim.Trace.record tr ~time event)
    entries;
  tr

let arb_case =
  QCheck.make
    ~print:(fun (seed, policy, churn, mutation) ->
      Printf.sprintf "seed=%d policy=%d churn=%b mutation=%d" seed policy churn
        mutation)
    QCheck.Gen.(
      quad (int_bound 100_000) (int_bound 2) bool (int_bound 5))

(* The audit bounds are drawn tight as often as not, so the ack-bound and
   progress-bound findings are exercised on compliant executions too. *)
let prop_audit_matches_reference =
  QCheck.Test.make ~name:"audit = three-pass reference (multiset)" ~count:300
    arb_case (fun (seed, policy, churn, mutation) ->
      let rng, dual, entries = execution ~seed ~policy ~churn in
      let tr = rebuild (mutate rng dual mutation entries) in
      let fack = if Dsim.Rng.bool rng then fack else fack /. 4. in
      let fprog = if Dsim.Rng.bool rng then fprog else fprog /. 3. in
      let allow_open = Dsim.Rng.bool rng in
      let expected = reference ~dual ~fack ~fprog ~allow_open tr in
      let actual = streamed ~dual ~fack ~fprog ~allow_open tr in
      let show vs =
        String.concat "\n"
          (List.map (fun (rule, detail) -> "[" ^ rule ^ "] " ^ detail) vs)
      in
      if expected <> actual then
        QCheck.Test.fail_reportf "reference:\n%s\nstreamed:\n%s"
          (show expected) (show actual)
      else true)

let suite =
  [
    ( "amac.compliance-oracle",
      [ QCheck_alcotest.to_alcotest prop_audit_matches_reference ] );
  ]
