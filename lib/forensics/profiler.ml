module Json = Deflection_telemetry.Json

type t = {
  on : bool;
  ival : int;
  mutable next : int;  (* next cycle threshold that triggers a sample *)
  mutable total : int;
  mutable retired_count : int;
  samples : (int, int) Hashtbl.t;  (* pc -> sample count *)
  mutable symbols : (int * string) array;  (* function entries, sorted by address *)
}

let create ?(interval = 64) () =
  if interval <= 0 then invalid_arg "Profiler.create: interval must be positive";
  {
    on = true;
    ival = interval;
    next = interval;
    total = 0;
    retired_count = 0;
    samples = Hashtbl.create 1024;
    symbols = [||];
  }

let disabled =
  {
    on = false;
    ival = 1;
    next = max_int;
    total = 0;
    retired_count = 0;
    samples = Hashtbl.create 1;
    symbols = [||];
  }

let enabled t = t.on
let interval t = t.ival

let set_symbols t syms =
  if t.on then begin
    let a = Array.of_list (List.map (fun (name, addr) -> (addr, name)) syms) in
    Array.sort (fun (a1, _) (a2, _) -> compare a1 a2) a;
    t.symbols <- a
  end

let bump t pc =
  (match Hashtbl.find_opt t.samples pc with
  | Some n -> Hashtbl.replace t.samples pc (n + 1)
  | None -> Hashtbl.add t.samples pc 1);
  t.total <- t.total + 1

let take_samples t ~cycles ~pc =
  while cycles >= t.next do
    bump t pc;
    t.next <- t.next + t.ival
  done

let on_step t ~cycles ~pc =
  if t.on then begin
    t.retired_count <- t.retired_count + 1;
    if cycles >= t.next then take_samples t ~cycles ~pc
  end

let due t ~cycles = t.on && cycles >= t.next
let retire t n = if t.on then t.retired_count <- t.retired_count + n
let catch_up t ~cycles ~pc = if t.on then take_samples t ~cycles ~pc

let retired t = t.retired_count
let samples_total t = t.total

(* ------------------------------------------------------------------ *)
(* Symbol resolution and aggregation *)

let unmapped = "<unmapped>"

(* nearest function entry at or below [pc] *)
let locate t pc =
  let a = t.symbols in
  let n = Array.length a in
  if n = 0 || pc < fst a.(0) then (unmapped, pc)
  else begin
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if fst a.(mid) <= pc then lo := mid else hi := mid - 1
    done;
    let addr, name = a.(!lo) in
    (name, pc - addr)
  end

type hotspot = { func : string; offset : int; pc : int; count : int }

let hotspots t =
  Hashtbl.fold
    (fun pc count acc ->
      let func, offset = locate t pc in
      { func; offset; pc; count } :: acc)
    t.samples []
  |> List.sort (fun a b -> if a.count <> b.count then compare b.count a.count else compare a.pc b.pc)

let by_function t =
  let tbl = Hashtbl.create 64 in
  Hashtbl.iter
    (fun pc count ->
      let func, _ = locate t pc in
      Hashtbl.replace tbl func (count + Option.value ~default:0 (Hashtbl.find_opt tbl func)))
    t.samples;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (n1, c1) (n2, c2) -> if c1 <> c2 then compare c2 c1 else compare n1 n2)

let collapsed t =
  let b = Buffer.create 1024 in
  List.iter
    (fun h -> Buffer.add_string b (Printf.sprintf "%s;+0x%x %d\n" h.func h.offset h.count))
    (hotspots t);
  Buffer.contents b

let to_json ?cycles t =
  Json.Obj
    ([
       ("schema", Json.Str "deflection-profile/1");
       ("interval", Json.Int t.ival);
     ]
    @ (match cycles with Some c -> [ ("cycles", Json.Int c) ] | None -> [])
    @ [
        ("samples_total", Json.Int t.total);
        ("retired_instructions", Json.Int t.retired_count);
        ("functions", Json.Obj (List.map (fun (n, c) -> (n, Json.Int c)) (by_function t)));
        ( "hotspots",
          Json.List
            (List.map
               (fun h ->
                 Json.Obj
                   [
                     ("func", Json.Str h.func);
                     ("offset", Json.Int h.offset);
                     ("pc", Json.Int h.pc);
                     ("count", Json.Int h.count);
                   ])
               (hotspots t)) );
        ("collapsed", Json.Str (collapsed t));
      ])

let pp fmt t =
  Format.fprintf fmt "@[<v>profile: %d samples (interval %d cycles), %d instructions retired@,"
    t.total t.ival t.retired_count;
  List.iter
    (fun (name, count) ->
      Format.fprintf fmt "  %-28s %8d samples (%5.1f%%)@," name count
        (if t.total = 0 then 0.0 else 100.0 *. float_of_int count /. float_of_int t.total))
    (by_function t);
  let hot = hotspots t in
  let top = List.filteri (fun i _ -> i < 10) hot in
  if top <> [] then begin
    Format.fprintf fmt "hottest sites:@,";
    List.iter
      (fun h -> Format.fprintf fmt "  %s;+0x%-6x pc=%#x %8d@," h.func h.offset h.pc h.count)
      top
  end;
  Format.fprintf fmt "@]"
