(* The structured error taxonomy: exit-code mapping, rendering, JSON
   shape and legacy-exception wrapping. *)

module E = Scanpower_errors
module Json = Telemetry.Json

let all_codes =
  [ E.Usage; E.Parse; E.Validation; E.Io; E.Runtime; E.Partial; E.Regression;
    E.Overloaded; E.Deadline; E.Degraded ]

let check_exit_codes () =
  Alcotest.(check int) "usage" 2 (E.exit_code E.Usage);
  Alcotest.(check int) "parse" 3 (E.exit_code E.Parse);
  Alcotest.(check int) "validation" 3 (E.exit_code E.Validation);
  Alcotest.(check int) "io" 4 (E.exit_code E.Io);
  Alcotest.(check int) "runtime" 4 (E.exit_code E.Runtime);
  Alcotest.(check int) "partial" 5 (E.exit_code E.Partial);
  Alcotest.(check int) "regression" 6 (E.exit_code E.Regression);
  Alcotest.(check int) "overloaded" 7 (E.exit_code E.Overloaded);
  Alcotest.(check int) "deadline" 8 (E.exit_code E.Deadline);
  Alcotest.(check int) "degraded" 9 (E.exit_code E.Degraded);
  List.iter
    (fun c ->
      Alcotest.(check bool)
        (E.code_to_string c ^ " reserves 0, 1 and cmdliner's 124")
        true
        (let n = E.exit_code c in
         n >= 2 && n <= 9))
    all_codes

let check_code_of_string () =
  List.iter
    (fun c ->
      Alcotest.(check bool)
        (E.code_to_string c ^ " round-trips")
        true
        (E.code_of_string (E.code_to_string c) = Some c))
    all_codes;
  Alcotest.(check bool) "unknown tag is None" true
    (E.code_of_string "catastrophe" = None)

let check_to_string () =
  let t =
    E.make ~circuit:"s27"
      ~loc:{ E.file = Some "x.bench"; line = 3; column = 5 }
      ~token:"NND" ~code:E.Validation ~stage:"bench_parser" "unknown gate"
  in
  let s = E.to_string t in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "%S mentions %S" s needle)
        true
        (let n = String.length needle and h = String.length s in
         let rec go i = i + n <= h && (String.sub s i n = needle || go (i + 1)) in
         go 0))
    [ "validation"; "bench_parser"; "s27"; "x.bench:3:5"; "NND"; "unknown gate" ]

let member_string obj k =
  match Json.member k obj with Some (Json.String s) -> Some s | _ -> None

let check_to_json () =
  let t =
    E.make ~circuit:"s27"
      ~loc:{ E.file = Some "x.bench"; line = 3; column = 5 }
      ~token:"NND" ~code:E.Parse ~stage:"bench_parser" "boom"
  in
  let j = E.to_json t in
  Alcotest.(check (option string)) "code" (Some "parse") (member_string j "code");
  Alcotest.(check (option string)) "stage" (Some "bench_parser")
    (member_string j "stage");
  Alcotest.(check (option string)) "circuit" (Some "s27")
    (member_string j "circuit");
  Alcotest.(check (option string)) "file" (Some "x.bench")
    (member_string j "file");
  Alcotest.(check (option string)) "token" (Some "NND") (member_string j "token");
  (match Json.member "line" j with
  | Some (Json.Int 3) -> ()
  | _ -> Alcotest.fail "line field");
  (* minimal error: the optional fields must be absent, not null *)
  let j' = E.to_json (E.make ~code:E.Runtime ~stage:"flow" "x") in
  Alcotest.(check (option string)) "no circuit" None (member_string j' "circuit");
  Alcotest.(check bool) "no line" true (Json.member "line" j' = None);
  (* and the rendering must survive the JSON printer/parser *)
  match Json.of_string (Json.to_string j) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("error JSON must parse: " ^ e)

let check_of_exn () =
  let wrap e = E.of_exn ~stage:"cli" ~circuit:"c1" e in
  let io = wrap (Sys_error "disk on fire") in
  Alcotest.(check string) "sys_error is io" "io" (E.code_to_string io.E.code);
  let rt = wrap (Failure "bug") in
  Alcotest.(check string) "failure is runtime" "runtime"
    (E.code_to_string rt.E.code);
  let inv = wrap (Invalid_argument "bad") in
  Alcotest.(check string) "invalid_argument is runtime" "runtime"
    (E.code_to_string inv.E.code);
  (* a structured error passes through, gaining the circuit only if it
     had none *)
  let orig = E.make ~code:E.Validation ~stage:"flow.prepare" "msg" in
  let through = wrap (E.Error orig) in
  Alcotest.(check string) "code preserved" "validation"
    (E.code_to_string through.E.code);
  Alcotest.(check string) "stage preserved" "flow.prepare" through.E.stage;
  Alcotest.(check (option string)) "circuit filled in" (Some "c1")
    through.E.circuit;
  let named = E.make ~circuit:"orig" ~code:E.Parse ~stage:"p" "m" in
  Alcotest.(check (option string)) "existing circuit kept" (Some "orig")
    (wrap (E.Error named)).E.circuit

(* ---- of_json: exact inverse of to_json ---- *)

let check_of_json_inverse () =
  let t =
    E.make ~circuit:"s27"
      ~loc:{ E.file = Some "x.bench"; line = 3; column = 5 }
      ~token:"NND" ~code:E.Parse ~stage:"bench_parser" "boom"
  in
  (match E.of_json (E.to_json t) with
  | Ok t' -> Alcotest.(check bool) "full error round-trips" true (t = t')
  | Error m -> Alcotest.fail m);
  let minimal = E.make ~code:E.Overloaded ~stage:"server.admission" "full" in
  (match E.of_json (E.to_json minimal) with
  | Ok t' -> Alcotest.(check bool) "minimal error round-trips" true (minimal = t')
  | Error m -> Alcotest.fail m);
  (* the retryable shed-under-pressure code crosses the wire intact *)
  let degraded = E.make ~code:E.Degraded ~stage:"server.admission" "shed" in
  (match E.of_json (E.to_json degraded) with
  | Ok t' ->
    Alcotest.(check bool) "degraded round-trips" true (degraded = t');
    Alcotest.(check int) "degraded exits 9" 9 (E.exit_code t'.E.code)
  | Error m -> Alcotest.fail m);
  (* strictness: unknown codes and missing fields must not decode *)
  let reject label j =
    match E.of_json j with
    | Ok _ -> Alcotest.fail (label ^ " must be rejected")
    | Error _ -> ()
  in
  reject "unknown code"
    (Json.Obj
       [ ("code", Json.String "catastrophe"); ("stage", Json.String "x");
         ("message", Json.String "m") ]);
  reject "missing message"
    (Json.Obj [ ("code", Json.String "io"); ("stage", Json.String "x") ]);
  reject "line without column"
    (Json.Obj
       [ ("code", Json.String "io"); ("stage", Json.String "x");
         ("message", Json.String "m"); ("line", Json.Int 3) ]);
  reject "non-object" (Json.String "io")

(* every structured error — any code, any combination of the optional
   fields — survives to_json/of_json bit-identically *)
let error_gen =
  let open QCheck.Gen in
  let code = oneofl [ E.Usage; E.Parse; E.Validation; E.Io; E.Runtime;
                      E.Partial; E.Regression; E.Overloaded; E.Deadline;
                      E.Degraded ] in
  let short = string_size ~gen:printable (int_range 0 12) in
  let opt g = oneof [ return None; map Option.some g ] in
  let loc =
    opt
      (map3
         (fun file line column -> { E.file; line; column })
         (opt short) (int_range 0 500) (int_range 0 80))
  in
  map (fun ((code, stage, message), (circuit, loc, token)) ->
      E.make ?circuit ?loc ?token ~code ~stage message)
    (pair (triple code short short) (triple (opt short) loc (opt short)))

let prop_error_json_roundtrip =
  QCheck.Test.make ~name:"of_json inverts to_json" ~count:500
    (QCheck.make error_gen) (fun t ->
      match E.of_json (E.to_json t) with
      | Ok t' -> t = t'
      | Error m -> QCheck.Test.fail_report m)

let check_errorf_and_raise () =
  match E.errorf ~code:E.Usage ~stage:"cli" "unknown circuit %S" "zz9" with
  | exception E.Error e ->
    Alcotest.(check string) "formatted" "unknown circuit \"zz9\"" e.E.message;
    Alcotest.(check string) "usage" "usage" (E.code_to_string e.E.code)
  | _ -> Alcotest.fail "errorf must raise"

(* The flow's input validation: warnings (a dangling gate) are logged
   but must never fail the run — the Builder already makes error-level
   circuit diagnostics unconstructible, so the raise path is covered at
   the parser level in test_bench_format. *)
let check_flow_validation_warns_but_proceeds () =
  let b = Netlist.Circuit.Builder.create ~name:"dangling" () in
  let a = Netlist.Circuit.Builder.add_input b "a" in
  let bb = Netlist.Circuit.Builder.add_input b "b" in
  let g = Netlist.Circuit.Builder.add_gate b Netlist.Gate.Nand "g" [ a; bb ] in
  ignore (Netlist.Circuit.Builder.add_gate b Netlist.Gate.Not "dead" [ g ]);
  ignore (Netlist.Circuit.Builder.add_output b "po" g);
  let c = Netlist.Circuit.Builder.build b in
  let diags = Netlist.Validate.circuit c in
  Alcotest.(check bool) "dangling gate warned" true
    (List.exists
       (fun d ->
         d.Netlist.Validate.check = "dangling"
         && d.Netlist.Validate.severity = Netlist.Validate.Warning)
       diags);
  Alcotest.(check int) "no errors" 0
    (List.length (Netlist.Validate.errors diags));
  let p = Scanpower.Flow.prepare c in
  Alcotest.(check bool) "flow still runs" true
    (p.Scanpower.Flow.atpg.Atpg.Pattern_gen.total_faults > 0)

(* Removed CLI values fail as usage errors: [(args, exit code, stderr
   needle)]. A removed engine value is a structured usage error (exit
   2) naming its replacement; a removed flag is Cmdliner's own
   unknown-option error (exit 124). The arguments are chosen so the
   command would fail differently, and fast, if the value were still
   accepted. *)
let removed_cli_values =
  let missing_dir =
    Filename.concat (Filename.get_temp_dir_name ()) "scanpower-no-such-dir"
  in
  [
    ([ "atpg"; "s27"; "--fault-engine"; "ppsfp" ], 2, "--fault-engine cpt");
    ( [ "sweep"; "no-such-circuit"; "--parallel"; "domains" ],
      124,
      "--parallel" );
    ( [ "serve"; "--parallel"; "processes"; "--socket";
        Filename.concat missing_dir "s.sock" ],
      124,
      "--parallel" );
  ]

let cli_exe =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    (Filename.concat Filename.parent_dir_name "bin/scanpower_cli.exe")

(* Run the CLI with [args]; returns (exit code, stderr). *)
let run_cli args =
  let err_path = Filename.temp_file "scanpower_cli" ".err" in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let err = Unix.openfile err_path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let pid =
    Unix.create_process cli_exe
      (Array.of_list (cli_exe :: args))
      null null err
  in
  Unix.close null;
  Unix.close err;
  let rec wait () =
    try snd (Unix.waitpid [] pid)
    with Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  let status = wait () in
  let stderr = In_channel.with_open_bin err_path In_channel.input_all in
  Sys.remove err_path;
  match status with
  | Unix.WEXITED code -> (code, stderr)
  | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> (-1, stderr)

let contains ~needle s =
  let n = String.length needle and h = String.length s in
  let rec go i = i + n <= h && (String.sub s i n = needle || go (i + 1)) in
  go 0

let check_removed_cli_values () =
  List.iter
    (fun (args, code, needle) ->
      let label = String.concat " " args in
      let got, stderr = run_cli args in
      Alcotest.(check int) (label ^ ": exit code") code got;
      Alcotest.(check bool)
        (Printf.sprintf "%s: stderr %S names %S" label stderr needle)
        true (contains ~needle stderr))
    removed_cli_values

let suite =
  [
    Alcotest.test_case "exit codes" `Quick check_exit_codes;
    Alcotest.test_case "code_of_string round-trips" `Quick check_code_of_string;
    Alcotest.test_case "to_string" `Quick check_to_string;
    Alcotest.test_case "to_json" `Quick check_to_json;
    Alcotest.test_case "of_json inverse + strictness" `Quick
      check_of_json_inverse;
    QCheck_alcotest.to_alcotest prop_error_json_roundtrip;
    Alcotest.test_case "of_exn wrapping" `Quick check_of_exn;
    Alcotest.test_case "errorf raises formatted" `Quick check_errorf_and_raise;
    Alcotest.test_case "flow validation warns but proceeds" `Quick
      check_flow_validation_warns_but_proceeds;
    Alcotest.test_case "removed CLI values are usage errors" `Quick
      check_removed_cli_values;
  ]
