(* One benchmark round, in its own process:

     main.exe --workload <name> --seed <n> [--trace 0|1] [--root <dir>]

   prints one JSON object on stdout: the round's measured calls, its
   output checks and fingerprint, its layer numbers and the OCaml
   runtime's own counters.  run.py starts rounds and aggregates them. *)

let json_str s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_num x = if Float.is_finite x then Printf.sprintf "%.17g" x else "0"
let json_obj kvs = "{" ^ String.concat "," (List.map (fun (k, v) -> json_str k ^ ":" ^ v) kvs) ^ "}"
let json_list f xs = "[" ^ String.concat "," (List.map f xs) ^ "]"

(* The reference computation run.py times between rounds, in a fresh
   process like a round: hashing, sorting, and fresh 2 MB block copies
   kept live, the mix the workloads spend their time on.  Its wall time
   says how fast the host runs at the moment; it touches no repo code. *)
let calibrate () =
  let t0 = Perfbench.Probe.now_ns () in
  let h = Hashtbl.create 1024 in
  for i = 0 to 40_000 do
    Hashtbl.replace h (i * 7919 mod 65_521) (string_of_int i)
  done;
  let l = List.init 40_000 (fun i -> i * 48_271 mod 2_147_483_647) in
  let media = Array.init 4096 (fun _ -> Bytes.make 512 'x') in
  let copies = List.init 6 (fun _ -> Array.map Bytes.copy media) in
  ignore (Sys.opaque_identity (h, List.sort compare l, copies));
  Perfbench.Probe.now_ns () - t0

let () =
  let workload = ref "" and seed = ref 1 and traced = ref false in
  let root = ref "." in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " one of: " ^ String.concat ", " Perfbench.Workloads.names);
      ("--seed", Arg.Set_int seed, " input seed");
      ("--trace", Arg.Int (fun t -> traced := t <> 0), " 1 = probe every layer");
      ("--root", Arg.Set_string root, " repository root (holds lib/)");
      ( "--calibrate",
        Arg.Unit
          (fun () ->
            Printf.printf "{\"calib_ns\":%d}\n" (calibrate ());
            exit 0),
        " time the reference computation instead" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload <name> --seed <n> [--trace 0|1]";
  if not (List.mem !workload Perfbench.Workloads.names) then begin
    prerr_endline ("unknown workload: " ^ !workload);
    exit 2
  end;
  let r =
    Perfbench.Workloads.run ~workload:!workload ~scale:Perfbench.Workloads.Full ~seed:!seed ~traced:!traced
      ~root:!root
  in
  let gc = Gc.quick_stat () in
  let word_mb = float_of_int (Sys.word_size / 8) /. 1048576.0 in
  let heap_mb = float_of_int gc.Gc.top_heap_words *. word_mb in
  let layers =
    r.Perfbench.Workloads.layers
    @ [
        ("gc.minor_mwords", gc.Gc.minor_words /. 1e6);
        ("gc.major_collections", float_of_int gc.Gc.major_collections);
        ("gc.top_heap_mb", heap_mb);
      ]
  in
  let open Perfbench.Workloads in
  print_endline
    (json_obj
       [
         ("ready_ns", string_of_int r.ready_ns);
         ("units", json_list (fun (w, ns) -> Printf.sprintf "[%d,%d]" w ns) r.units);
         ("attempted", string_of_int r.attempted);
         ("failures", json_list json_str r.failures);
         ("fingerprint", json_str r.fingerprint);
         ("heap_mb", json_num heap_mb);
         ("traced_ns", string_of_int r.traced_ns);
         ("plain_ns", string_of_int r.plain_ns);
         ("layers", json_obj (List.map (fun (k, v) -> (k, json_num v)) layers));
       ])
