type t = {
  name : string;
  graph : Graph.t;
  coords : (int * int) array option;
}

let grid rows cols =
  if rows <= 0 || cols <= 0 then invalid_arg "Topology.grid: dimensions must be positive";
  let id r c = (r * cols) + c in
  let g = Graph.create (rows * cols) in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      if c + 1 < cols then Graph.add_edge g (id r c) (id r (c + 1));
      if r + 1 < rows then Graph.add_edge g (id r c) (id (r + 1) c)
    done
  done;
  let coords = Array.init (rows * cols) (fun v -> (v / cols, v mod cols)) in
  { name = Printf.sprintf "2D-%dx%d" rows cols; graph = g; coords = Some coords }

let path n =
  if n <= 0 then invalid_arg "Topology.path: size must be positive";
  let g = Graph.create n in
  for i = 0 to n - 2 do
    Graph.add_edge g i (i + 1)
  done;
  let coords = Array.init n (fun v -> (0, v)) in
  { name = Printf.sprintf "1D-%d" n; graph = g; coords = Some coords }

let square_grid n =
  if n <= 0 then invalid_arg "Topology.square_grid: size must be positive";
  (* Most balanced factorisation r * c = n with r <= c. *)
  let rec best r = if r >= 1 && n mod r = 0 then r else best (r - 1) in
  let r = best (int_of_float (sqrt (float_of_int n))) in
  if r = 1 then path n else grid r (n / r)

let ring n =
  if n < 3 then invalid_arg "Topology.ring: needs at least 3 vertices";
  let g = Graph.create n in
  for i = 0 to n - 1 do
    Graph.add_edge g i ((i + 1) mod n)
  done;
  { name = Printf.sprintf "RING-%d" n; graph = g; coords = None }

let complete n =
  if n <= 0 then invalid_arg "Topology.complete: size must be positive";
  let g = Graph.create n in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      Graph.add_edge g u v
    done
  done;
  { name = Printf.sprintf "FULL-%d" n; graph = g; coords = None }

let express_1d n k =
  if k < 2 then invalid_arg "Topology.express_1d: k must be >= 2";
  let base = path n in
  let g = base.graph in
  let i = ref 0 in
  while !i + k <= n - 1 do
    Graph.add_edge g !i (!i + k);
    i := !i + k
  done;
  { base with name = Printf.sprintf "1EX-%d" k }

let express_2d rows cols k =
  if k < 2 then invalid_arg "Topology.express_2d: k must be >= 2";
  let base = grid rows cols in
  let g = base.graph in
  let id r c = (r * cols) + c in
  for r = 0 to rows - 1 do
    let c = ref 0 in
    while !c + k <= cols - 1 do
      Graph.add_edge g (id r !c) (id r (!c + k));
      c := !c + k
    done
  done;
  for c = 0 to cols - 1 do
    let r = ref 0 in
    while !r + k <= rows - 1 do
      Graph.add_edge g (id !r c) (id (!r + k) c);
      r := !r + k
    done
  done;
  { base with name = Printf.sprintf "2EX-%d" k }

let honeycomb rows cols =
  if rows <= 0 || cols <= 0 then invalid_arg "Topology.honeycomb: dimensions must be positive";
  (* brick-wall drawing: (rows+1) rows of (2*cols + 2) vertices, all
     horizontal edges, vertical rungs every 2 columns with alternating
     offset so every face is a hexagon and every degree is <= 3 *)
  let vrows = rows + 1 and vcols = (2 * cols) + 2 in
  let id r c = (r * vcols) + c in
  let g = Graph.create (vrows * vcols) in
  for r = 0 to vrows - 1 do
    for c = 0 to vcols - 1 do
      if c + 1 < vcols then Graph.add_edge g (id r c) (id r (c + 1));
      if r + 1 < vrows && c mod 2 = r mod 2 then Graph.add_edge g (id r c) (id (r + 1) c)
    done
  done;
  let coords = Array.init (vrows * vcols) (fun v -> (v / vcols, v mod vcols)) in
  { name = Printf.sprintf "HEX-%dx%d" rows cols; graph = g; coords = Some coords }

let subdivide t =
  let g = t.graph in
  let n = Graph.n_vertices g in
  let edges = Graph.edges g in
  let g' = Graph.create (n + List.length edges) in
  List.iteri
    (fun i (u, v) ->
      let middle = n + i in
      Graph.add_edge g' u middle;
      Graph.add_edge g' middle v)
    edges;
  { name = "SUB-" ^ t.name; graph = g'; coords = None }

let heavy_hex rows cols =
  let t = subdivide (honeycomb rows cols) in
  { t with name = Printf.sprintf "HH-%dx%d" rows cols }

let octagonal rows cols =
  if rows <= 0 || cols <= 0 then invalid_arg "Topology.octagonal: dimensions must be positive";
  let cell r c = ((r * cols) + c) * 8 in
  let g = Graph.create (rows * cols * 8) in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      let base = cell r c in
      (* the 8-qubit ring *)
      for k = 0 to 7 do
        Graph.add_edge g (base + k) (base + ((k + 1) mod 8))
      done;
      (* two couplings to the ring on the right (Aspen style) *)
      if c + 1 < cols then begin
        let right = cell r (c + 1) in
        Graph.add_edge g (base + 1) (right + 6);
        Graph.add_edge g (base + 2) (right + 5)
      end;
      (* two couplings to the ring below *)
      if r + 1 < rows then begin
        let below = cell (r + 1) c in
        Graph.add_edge g (base + 3) (below + 0);
        Graph.add_edge g (base + 4) (below + 7)
      end
    done
  done;
  { name = Printf.sprintf "OCT-%dx%d" rows cols; graph = g; coords = None }

type tiling_class = A | B | C | D

let grid_edge_classes rows cols =
  let id r c = (r * cols) + c in
  let classes = ref [] in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      (* Vertical couplers alternate A/B by row parity; horizontal couplers
         alternate C/D by column parity.  Within a class no qubit repeats. *)
      if r + 1 < rows then begin
        let cls = if r mod 2 = 0 then A else B in
        classes := ((id r c, id (r + 1) c), cls) :: !classes
      end;
      if c + 1 < cols then begin
        let cls = if c mod 2 = 0 then C else D in
        classes := ((id r c, id r (c + 1)), cls) :: !classes
      end
    done
  done;
  List.rev !classes

let coords_exn t v =
  match t.coords with
  | None -> invalid_arg (Printf.sprintf "Topology.coords_exn: %s has no embedding" t.name)
  | Some coords -> coords.(v)
