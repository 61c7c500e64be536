(* Tests for the server layer: file server (timing, errors, state), name
   server, display server — each exercised through real IPC from client
   processes on other workstations. *)

let sec = Time.of_sec
let ms = Time.of_ms

type fixture = {
  eng : Engine.t;
  kernels : Kernel.t array;
  fs : File_server.t;
}

let setup ?(hosts = 2) () =
  let eng = Engine.create () in
  let rng = Rng.create 5 in
  let net = Ethernet.create eng (Rng.split rng) in
  let tracer = Tracer.create eng in
  Tracer.set_enabled tracer false;
  let alloc = Ids.Lh_allocator.create () in
  let kernels =
    Array.init hosts (fun i ->
        Kernel.create ~engine:eng ~rng:(Rng.split rng) ~tracer
          ~params:Os_params.default ~net ~station:(Addr.of_int i)
          ~host_name:(Printf.sprintf "h%d" i)
          ~allocator:alloc
          ~memory_bytes:(8 * 1024 * 1024))
  in
  let fs = File_server.create kernels.(0) in
  { eng; kernels; fs }

(* Run [body] as a client process on host 1 and drive the simulation. *)
let as_client fx body =
  let k = fx.kernels.(1) in
  let lh = Kernel.create_logical_host k ~priority:Cpu.Foreground in
  ignore (Kernel.spawn_process k lh (fun vp -> body k (Vproc.pid vp)));
  Engine.run fx.eng ~until:(sec 60.)

(* {1 File server} *)

let test_fs_stat () =
  let fx = setup () in
  File_server.add_file fx.fs ~path:"data.txt" ~bytes:12_345;
  let size = ref 0 in
  as_client fx (fun k self ->
      match
        File_server.Client.stat k ~self ~server:(File_server.pid fx.fs)
          ~path:"data.txt"
      with
      | Ok n -> size := n
      | Error e -> Alcotest.failf "stat: %s" e);
  Alcotest.(check int) "size" 12_345 !size

let test_fs_stat_missing () =
  let fx = setup () in
  let err = ref None in
  as_client fx (fun k self ->
      match
        File_server.Client.stat k ~self ~server:(File_server.pid fx.fs)
          ~path:"nope"
      with
      | Ok _ -> ()
      | Error e -> err := Some e);
  Alcotest.(check (option string)) "error" (Some "no such file") !err

let test_fs_read_clamps_to_eof () =
  let fx = setup () in
  File_server.add_file fx.fs ~path:"short" ~bytes:1000;
  let n = ref (-1) in
  as_client fx (fun k self ->
      match
        File_server.Client.read k ~self ~server:(File_server.pid fx.fs)
          ~path:"short" ~offset:800 ~length:4096
      with
      | Ok got -> n := got
      | Error e -> Alcotest.failf "read: %s" e);
  Alcotest.(check int) "clamped" 200 !n

let test_fs_write_extends () =
  let fx = setup () in
  as_client fx (fun k self ->
      match
        File_server.Client.write k ~self ~server:(File_server.pid fx.fs)
          ~path:"log" ~offset:0 ~length:5000
      with
      | Ok () -> ()
      | Error e -> Alcotest.failf "write: %s" e);
  Alcotest.(check (option int)) "created and sized" (Some 5000)
    (File_server.file_size fx.fs ~path:"log")

let test_fs_load_image_timing () =
  (* A 100 KB image must load in ~330 ms: 300 ms network + 30 ms disk. *)
  let fx = setup () in
  File_server.add_image fx.fs ~name:"blob"
    { File_server.code_bytes = 80 * 1024; data_bytes = 20 * 1024; active_bytes = 0 };
  let span = ref Time.zero in
  as_client fx (fun k self ->
      let t0 = Engine.now fx.eng in
      match
        File_server.Client.load_image k ~self ~server:(File_server.pid fx.fs)
          ~name:"blob"
      with
      | Ok img ->
          Alcotest.(check int) "code" (80 * 1024) img.File_server.code_bytes;
          span := Time.sub (Engine.now fx.eng) t0
      | Error e -> Alcotest.failf "load: %s" e);
  let t = Time.to_ms !span in
  if t < 300. || t > 380. then Alcotest.failf "load took %.0f ms, expected ~330" t

let test_fs_load_missing_image () =
  let fx = setup () in
  let err = ref None in
  as_client fx (fun k self ->
      match
        File_server.Client.load_image k ~self ~server:(File_server.pid fx.fs)
          ~name:"ghost"
      with
      | Ok _ -> ()
      | Error e -> err := Some e);
  Alcotest.(check (option string)) "error" (Some "no such image") !err

let test_fs_request_count () =
  let fx = setup () in
  File_server.add_file fx.fs ~path:"f" ~bytes:100;
  as_client fx (fun k self ->
      let server = File_server.pid fx.fs in
      ignore (File_server.Client.stat k ~self ~server ~path:"f");
      ignore (File_server.Client.read k ~self ~server ~path:"f" ~offset:0 ~length:10);
      ignore (File_server.Client.write k ~self ~server ~path:"f" ~offset:0 ~length:10));
  Alcotest.(check int) "three requests" 3 (File_server.request_count fx.fs)

let test_fs_small_read_fast_large_read_slow () =
  let fx = setup () in
  File_server.add_file fx.fs ~path:"big" ~bytes:(256 * 1024);
  let small = ref Time.zero and large = ref Time.zero in
  as_client fx (fun k self ->
      let server = File_server.pid fx.fs in
      let t0 = Engine.now fx.eng in
      ignore (File_server.Client.read k ~self ~server ~path:"big" ~offset:0 ~length:512);
      small := Time.sub (Engine.now fx.eng) t0;
      let t1 = Engine.now fx.eng in
      ignore
        (File_server.Client.read k ~self ~server ~path:"big" ~offset:0
           ~length:(64 * 1024));
      large := Time.sub (Engine.now fx.eng) t1);
  if Time.(!large < Time.scale !small 10.) then
    Alcotest.failf "64KB read (%s) should dwarf 512B read (%s)"
      (Time.to_string !large) (Time.to_string !small)

(* {1 Name server} *)

let test_ns_register_lookup () =
  let fx = setup () in
  let ns = Name_server.create fx.kernels.(0) in
  let found = ref None in
  as_client fx (fun k self ->
      (match
         Name_server.Client.register k ~self ~server:(Name_server.pid ns)
           ~name:"myservice"
       with
      | Ok () -> ()
      | Error e -> Alcotest.failf "register: %s" e);
      match
        Name_server.Client.lookup k ~self ~server:(Name_server.pid ns)
          ~name:"myservice"
      with
      | Ok pid -> found := Some pid
      | Error e -> Alcotest.failf "lookup: %s" e);
  match !found with
  | Some pid -> Alcotest.(check bool) "bound to registrar" true (pid.Ids.index >= 16)
  | None -> Alcotest.fail "no binding"

let test_ns_unknown_name () =
  let fx = setup () in
  let ns = Name_server.create fx.kernels.(0) in
  let err = ref None in
  as_client fx (fun k self ->
      match
        Name_server.Client.lookup k ~self ~server:(Name_server.pid ns) ~name:"?"
      with
      | Ok _ -> ()
      | Error e -> err := Some e);
  Alcotest.(check bool) "unknown" true (!err <> None)

let test_ns_direct_registration () =
  let fx = setup () in
  let ns = Name_server.create fx.kernels.(0) in
  let pid = Ids.pid 99 17 in
  Name_server.register_direct ns ~name:"x" pid;
  Alcotest.(check bool) "direct" true
    (Name_server.lookup_direct ns ~name:"x" = Some pid)

(* {1 Display server} *)

let test_display_accumulates () =
  let fx = setup () in
  let ds = Display_server.create fx.kernels.(0) in
  as_client fx (fun k self ->
      ignore (Display_server.Client.write k ~self ~server:(Display_server.pid ds) "one");
      ignore (Display_server.Client.write k ~self ~server:(Display_server.pid ds) "two"));
  Alcotest.(check (list string)) "lines" [ "one"; "two" ] (Display_server.output ds);
  Alcotest.(check int) "count" 2 (Display_server.line_count ds)

let test_display_write_time_reasonable () =
  let fx = setup () in
  let ds = Display_server.create fx.kernels.(0) in
  let span = ref Time.zero in
  as_client fx (fun k self ->
      let t0 = Engine.now fx.eng in
      ignore (Display_server.Client.write k ~self ~server:(Display_server.pid ds) "hi");
      span := Time.sub (Engine.now fx.eng) t0);
  if Time.(!span > ms 10.) then
    Alcotest.failf "remote display write took %s" (Time.to_string !span)

let () =
  Alcotest.run "v_services"
    [
      ( "file-server",
        [
          Alcotest.test_case "stat" `Quick test_fs_stat;
          Alcotest.test_case "stat missing" `Quick test_fs_stat_missing;
          Alcotest.test_case "read clamps to EOF" `Quick
            test_fs_read_clamps_to_eof;
          Alcotest.test_case "write extends" `Quick test_fs_write_extends;
          Alcotest.test_case "image load timing (330ms/100KB)" `Quick
            test_fs_load_image_timing;
          Alcotest.test_case "missing image" `Quick test_fs_load_missing_image;
          Alcotest.test_case "request counting" `Quick test_fs_request_count;
          Alcotest.test_case "read size scales cost" `Quick
            test_fs_small_read_fast_large_read_slow;
        ] );
      ( "name-server",
        [
          Alcotest.test_case "register+lookup" `Quick test_ns_register_lookup;
          Alcotest.test_case "unknown name" `Quick test_ns_unknown_name;
          Alcotest.test_case "direct registration" `Quick
            test_ns_direct_registration;
        ] );
      ( "display-server",
        [
          Alcotest.test_case "accumulates lines" `Quick test_display_accumulates;
          Alcotest.test_case "write latency" `Quick
            test_display_write_time_reasonable;
        ] );
    ]
