type stats = {
  cycles : int;
  max_colors_used : int;
  postponed : int;
  min_delta : float;
  components : int;
  component_max_size : int;
  component_sizes : string;
  component_solves : int;
}

let run ?(crosstalk_distance = 1) ?(max_colors = None) ?(conflict_threshold = 4)
    ?(colorer = Coloring.welsh_powell) device circuit =
  (match max_colors with
  | Some k when k < 1 -> invalid_arg "Color_dynamic.run: max_colors must be >= 1"
  | _ -> ());
  if conflict_threshold < 1 then invalid_arg "Color_dynamic.run: conflict_threshold must be >= 1";
  let effective_threshold =
    match max_colors with
    | Some k -> min conflict_threshold k
    | None -> conflict_threshold
  in
  let idle_freqs = Freq_alloc.idle_per_qubit device in
  let xg = Crosstalk_graph.build ~distance:crosstalk_distance (Device.graph device) in
  let pending = Pending.create circuit in
  let steps = ref [] in
  let cycles = ref 0 in
  let max_colors_used = ref 0 in
  let postponed = ref 0 in
  let min_delta = ref infinity in
  let components = ref 0 in
  let component_max_size = ref 0 in
  let size_histogram : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let component_solves = ref 0 in
  while not (Pending.is_empty pending) do
    incr cycles;
    (* Lines 10-16: select gates for this cycle, most critical first,
       postponing two-qubit gates with too many active crosstalk
       neighbours. *)
    let used = Array.make (Device.n_qubits device) false in
    let chosen = ref [] in
    let active = ref [] in
    List.iter
      (fun app ->
        let free = Array.for_all (fun q -> not used.(q)) app.Gate.qubits in
        if free then begin
          let accept =
            match app.Gate.qubits with
            | [| a; b |] ->
              let v = Crosstalk_graph.vertex_of_pair xg (a, b) in
              if Crosstalk_graph.conflict_count xg v !active < effective_threshold then begin
                active := v :: !active;
                true
              end
              else begin
                incr postponed;
                false
              end
            | _ -> true
          in
          if accept then begin
            Array.iter (fun q -> used.(q) <- true) app.Gate.qubits;
            chosen := app :: !chosen
          end
        end)
      (Pending.ready pending);
    (* Lines 17-19: color the active subgraph of the crosstalk graph. *)
    let subgraph = Crosstalk_graph.active_subgraph xg !active in
    let raw_coloring = colorer subgraph in
    (* Compact the colors appearing on active vertices to 0..k-1, largest
       class first so a color cap keeps the busiest classes. *)
    let class_size = Hashtbl.create 8 in
    List.iter
      (fun v ->
        let c = raw_coloring.(v) in
        Hashtbl.replace class_size c (1 + Option.value ~default:0 (Hashtbl.find_opt class_size c)))
      !active;
    let classes_by_size =
      List.sort
        (fun (c1, n1) (c2, n2) -> match compare n2 n1 with 0 -> compare c1 c2 | c -> c)
        (Hashtbl.fold (fun c n acc -> (c, n) :: acc) class_size [])
    in
    let compact = Hashtbl.create 8 in
    List.iteri (fun i (c, _) -> Hashtbl.replace compact c i) classes_by_size;
    (* Apply the color cap: postpone gates whose compact color exceeds it. *)
    let cap = match max_colors with Some k -> k | None -> max_int in
    let keep_gate app =
      match app.Gate.qubits with
      | [| a; b |] ->
        let v = Crosstalk_graph.vertex_of_pair xg (a, b) in
        let c = Hashtbl.find compact raw_coloring.(v) in
        if c < cap then true
        else begin
          incr postponed;
          false
        end
      | _ -> true
    in
    let gates = List.filter keep_gate (List.rev !chosen) in
    assert (gates <> []);
    (* surviving active vertices and their color multiplicities *)
    let survivors =
      List.filter_map
        (fun app ->
          match app.Gate.qubits with
          | [| a; b |] -> Some (Crosstalk_graph.vertex_of_pair xg (a, b))
          | _ -> None)
        gates
    in
    let n_colors =
      List.fold_left (fun acc v -> max acc (1 + Hashtbl.find compact raw_coloring.(v))) 0 survivors
    in
    max_colors_used := max !max_colors_used n_colors;
    (* Line 20: map colors to interaction frequencies via the solver. *)
    let multiplicity = Array.make (max n_colors 1) 0 in
    List.iter
      (fun v ->
        let c = Hashtbl.find compact raw_coloring.(v) in
        multiplicity.(c) <- multiplicity.(c) + 1)
      survivors;
    (* Independent regions of the moment: bookkeeping only (the trace
       reports how decomposable each moment is; allocation stays global). *)
    List.iter
      (fun comp ->
        let size = List.length comp in
        incr components;
        if size > !component_max_size then component_max_size := size;
        Hashtbl.replace size_histogram size
          (1 + Option.value ~default:0 (Hashtbl.find_opt size_histogram size)))
      (Crosstalk_graph.components_of_active xg survivors);
    let freq_of_gate =
      if n_colors = 0 then fun _ -> Step_builder.interaction_center device
      else begin
        let assignment = Freq_alloc.interaction device ~n_colors ~multiplicity in
        incr component_solves;
        if assignment.Freq_alloc.delta < !min_delta then
          min_delta := assignment.Freq_alloc.delta;
        fun app ->
          match app.Gate.qubits with
          | [| a; b |] ->
            let v = Crosstalk_graph.vertex_of_pair xg (a, b) in
            assignment.Freq_alloc.freqs.(Hashtbl.find compact raw_coloring.(v))
          | _ -> assert false
      end
    in
    List.iter (Pending.schedule pending) gates;
    steps := Step_builder.make device ~idle_freqs ~freq_of_gate gates :: !steps
  done;
  let schedule =
    {
      Schedule.device;
      algorithm = "color-dynamic";
      steps = List.rev !steps;
      idle_freqs;
      coupler = Schedule.Fixed_coupler;
    }
  in
  let component_sizes =
    String.concat " "
      (List.map
         (fun (size, count) -> Printf.sprintf "%d:%d" size count)
         (List.sort compare (Hashtbl.fold (fun s c acc -> (s, c) :: acc) size_histogram [])))
  in
  ( schedule,
    {
      cycles = !cycles;
      max_colors_used = !max_colors_used;
      postponed = !postponed;
      min_delta = !min_delta;
      components = !components;
      component_max_size = !component_max_size;
      component_sizes;
      component_solves = !component_solves;
    } )

let pass_stats stats =
  [
    ("cycles", Pass.Int stats.cycles);
    ("max_colors_used", Pass.Int stats.max_colors_used);
    ("postponed", Pass.Int stats.postponed);
    ("min_delta", Pass.Float stats.min_delta);
    ("components", Pass.Int stats.components);
    ("component_max_size", Pass.Int stats.component_max_size);
    ("component_sizes", Pass.Text stats.component_sizes);
    ("component_solves", Pass.Int stats.component_solves);
  ]

let scheduler : Pass.scheduler =
  (module struct
    let name = "color-dynamic"

    let aliases = [ "colordynamic"; "cd" ]

    let table1 = true

    let consumes = `Native

    let schedule (options : Pass.options) device native =
      let schedule, stats =
        run ~crosstalk_distance:options.Pass.crosstalk_distance
          ~max_colors:options.Pass.max_colors
          ~conflict_threshold:options.Pass.conflict_threshold device native
      in
      (schedule, pass_stats stats)
  end)
