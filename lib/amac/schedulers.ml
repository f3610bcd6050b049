open Mac_intf

let deliveries_at delay nodes tail =
  Array.fold_right (fun receiver acc -> { receiver; delay } :: acc) nodes tail

let eager ?(latency_frac = 0.1) () =
  let plan ctx =
    let delay = latency_frac *. ctx.bc_fprog in
    {
      ack_delay = delay;
      deliveries =
        deliveries_at delay ctx.bc_g_neighbors
          (deliveries_at delay ctx.bc_g'_only_neighbors []);
    }
  in
  let forced ctx = List.hd ctx.fc_candidates in
  { pol_name = "eager"; pol_plan = plan; pol_forced = forced }

let random_compliant ?(p_unreliable = 0.5) () =
  let plan ctx =
    let rng = ctx.bc_rng in
    let ack_delay =
      (0.5 +. (0.5 *. Dsim.Rng.float rng 1.)) *. ctx.bc_fack
    in
    let uniform_delay () = Dsim.Rng.float rng ack_delay in
    (* Both builds draw in ascending receiver order — the [let d] before
       each recursive call pins the draw sequence, which the traces
       depend on — without the intermediate array/list copies of the
       map-then-to_list formulation. *)
    let g'_deliveries =
      let a = ctx.bc_g'_only_neighbors in
      let rec build i =
        if i >= Array.length a then []
        else if Dsim.Rng.bernoulli rng ~p:p_unreliable then
          let d = { receiver = a.(i); delay = uniform_delay () } in
          d :: build (i + 1)
        else build (i + 1)
      in
      build
    in
    let deliveries =
      let a = ctx.bc_g_neighbors in
      let rec build i =
        if i >= Array.length a then g'_deliveries 0
        else
          let d = { receiver = a.(i); delay = uniform_delay () } in
          d :: build (i + 1)
      in
      build 0
    in
    { ack_delay; deliveries }
  in
  let forced ctx =
    (* Same single length-bounded draw as [Rng.pick] on an array copy,
       without the copy. *)
    Dsim.Rng.pick_list ctx.fc_rng ctx.fc_candidates
  in
  { pol_name = "random"; pol_plan = plan; pol_forced = forced }

let adversarial () =
  let plan ctx =
    {
      ack_delay = ctx.bc_fack;
      deliveries = deliveries_at ctx.bc_fack ctx.bc_g_neighbors [];
    }
  in
  let forced ctx =
    (* Preference order: a body the receiver already has (pure waste), then
       an unreliable-only sender (out-of-pipeline injection), then anything. *)
    let duplicates =
      List.filter (fun c -> ctx.fc_has_received c.cand_body) ctx.fc_candidates
    in
    let unreliable_only =
      List.filter (fun c -> not c.cand_is_g_neighbor) ctx.fc_candidates
    in
    match (duplicates, unreliable_only) with
    | c :: _, _ -> c
    | [], c :: _ -> c
    | [], [] -> List.hd ctx.fc_candidates
  in
  { pol_name = "adversarial"; pol_plan = plan; pol_forced = forced }

let bursty ?(p_bad = 0.15) ?(p_good = 0.1) () =
  let state : (int, bool) Hashtbl.t = Hashtbl.create 64 in
  let edge_up rng u v =
    (* Node ids are non-negative and far below 2^31, so this pack is
       injective on a 63-bit int — one immediate key, no tuple to hash
       structurally.  The table is only probed (find_opt/replace), never
       iterated, so the key change cannot reorder anything. *)
    let key = (u lsl 31) lor v in
    let good =
      match Hashtbl.find_opt state key with Some g -> g | None -> true
    in
    let good' =
      if good then not (Dsim.Rng.bernoulli rng ~p:p_bad)
      else Dsim.Rng.bernoulli rng ~p:p_good
    in
    Hashtbl.replace state key good';
    good'
  in
  let plan ctx =
    let rng = ctx.bc_rng in
    let ack_delay = (0.5 +. (0.5 *. Dsim.Rng.float rng 1.)) *. ctx.bc_fack in
    let uniform_delay () = Dsim.Rng.float rng ack_delay in
    (* Ascending-order builds with let-pinned draws, as in
       [random_compliant]. *)
    let g'_deliveries =
      let a = ctx.bc_g'_only_neighbors in
      let rec build i =
        if i >= Array.length a then []
        else if edge_up rng ctx.bc_sender a.(i) then
          let d = { receiver = a.(i); delay = uniform_delay () } in
          d :: build (i + 1)
        else build (i + 1)
      in
      build
    in
    let deliveries =
      let a = ctx.bc_g_neighbors in
      let rec build i =
        if i >= Array.length a then g'_deliveries 0
        else
          let d = { receiver = a.(i); delay = uniform_delay () } in
          d :: build (i + 1)
      in
      build 0
    in
    { ack_delay; deliveries }
  in
  let forced ctx = Dsim.Rng.pick_list ctx.fc_rng ctx.fc_candidates in
  { pol_name = "bursty"; pol_plan = plan; pol_forced = forced }

let name p = p.pol_name

let all_standard () =
  [
    ("eager", fun () -> eager ());
    ("random", fun () -> random_compliant ());
    ("adversarial", fun () -> adversarial ());
    ("bursty", fun () -> bursty ());
  ]
