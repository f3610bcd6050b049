let header ~w ~h =
  Printf.sprintf
    {|<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">
<rect width="%d" height="%d" fill="#ffffff"/>
|}
    w h w h w h

let render ?(width = 640) ?(highlight = fun _ -> false)
    ?(label = fun _ -> None) dual =
  match dual.Dual.embedding with
  | None -> None
  | Some pts ->
      let n = Array.length pts in
      let min_x = ref infinity and max_x = ref neg_infinity in
      let min_y = ref infinity and max_y = ref neg_infinity in
      Array.iter
        (fun p ->
          min_x := Float.min !min_x p.Geometry.x;
          max_x := Float.max !max_x p.Geometry.x;
          min_y := Float.min !min_y p.Geometry.y;
          max_y := Float.max !max_y p.Geometry.y)
        pts;
      let margin = 20. in
      let span_x = Float.max 1e-6 (!max_x -. !min_x) in
      let span_y = Float.max 1e-6 (!max_y -. !min_y) in
      let w = float_of_int width in
      let scale = (w -. (2. *. margin)) /. span_x in
      let h = (span_y *. scale) +. (2. *. margin) in
      let px p = ((p.Geometry.x -. !min_x) *. scale) +. margin in
      let py p = ((p.Geometry.y -. !min_y) *. scale) +. margin in
      let buf = Buffer.create 4096 in
      Buffer.add_string buf (header ~w:width ~h:(int_of_float (ceil h)));
      let g = Dual.reliable dual in
      (* Unreliable (dashed) edges first so reliable ones draw on top. *)
      List.iter
        (fun (u, v) ->
          Buffer.add_string buf
            (Printf.sprintf
               {|<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="#d65f5f" stroke-width="1" stroke-dasharray="4 3" opacity="0.7"/>
|}
               (px pts.(u)) (py pts.(u)) (px pts.(v)) (py pts.(v))))
        (Dual.unreliable_only_edges dual);
      List.iter
        (fun (u, v) ->
          Buffer.add_string buf
            (Printf.sprintf
               {|<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="#4878a8" stroke-width="1.5"/>
|}
               (px pts.(u)) (py pts.(u)) (px pts.(v)) (py pts.(v))))
        (Graph.edges g);
      for v = 0 to n - 1 do
        let fill = if highlight v then "#e8a838" else "#335577" in
        Buffer.add_string buf
          (Printf.sprintf
             {|<circle cx="%.1f" cy="%.1f" r="5" fill="%s" stroke="#10253a" stroke-width="1"/>
|}
             (px pts.(v)) (py pts.(v)) fill);
        match label v with
        | Some text ->
            Buffer.add_string buf
              (Printf.sprintf
                 {|<text x="%.1f" y="%.1f" font-size="10" font-family="sans-serif" fill="#10253a">%s</text>
|}
                 (px pts.(v) +. 7.)
                 (py pts.(v) -. 7.)
                 text)
        | None -> ()
      done;
      Buffer.add_string buf "</svg>\n";
      Some (Buffer.contents buf)

let write ~path doc =
  Dsim.Json.write_file ~path (fun oc -> output_string oc doc)
