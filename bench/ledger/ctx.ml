(* What a workload run carries: the tally it fills, and in the traced run
   the span log and the root span everything hangs off.  Sinks that write
   files (audited runs, span dumps) write under [out_dir]. *)

type t = {
  tally : Tally.t;
  log : Span_log.t option;
  root : Span_log.span option;
  out_dir : string;
}

let traced t = Option.is_some t.log

(* [span t ?sim ?parent name f] runs [f] inside a span when tracing, and
   plainly otherwise; [f] gets the span so it can parent children. *)
let span t ?sim ?(parent = None) name f =
  match t.log with
  | None -> f None
  | Some l -> Span_log.within l ?sim ?parent name (fun s -> f (Some s))

(* Time [f] into the tally's setup total (and a span, when tracing). *)
let setup t ?sim ?(parent = None) name f =
  span t ?sim ~parent name (fun _ ->
      let r, dt = Clock.timed f in
      Tally.setup t.tally dt;
      r)

(* Attribute per-category handler wall time read from an engine whose
   clock the traced run injected; [parent] is the span of the call. *)
let note_categories t ~parent sim =
  List.iter
    (fun (cat, events, wall) ->
      let name =
        if String.length cat > 4 && String.sub cat 0 4 = "mac." then
          "amac." ^ String.sub cat 4 (String.length cat - 4)
        else cat
      in
      Tally.add t.tally (name ^ ".events") events;
      Tally.addf t.tally (name ^ "_s") wall;
      match (t.log, parent) with
      | Some l, Some p -> Span_log.synthetic l ~parent:p ~dur:wall name
      | _ -> ())
    (Dsim.Sim.category_stats sim)
