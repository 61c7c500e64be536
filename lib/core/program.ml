(* File operations owed, in fractional operations. An all-float record
   stores both unboxed; a float [ref] would box every update. *)
type io_debt = { mutable reads : float; mutable writes : float }

let run_spec ctx rng ~lh ~spec ~env ~model ~charge ~self =
  let lh_id = Logical_host.id lh in
  let io = spec.Programs.io in
  let gate = Logical_host.gate lh in
  let debt = { reads = 0.; writes = 0. } in
  (* Every kernel entry re-passes the freeze gate and re-resolves the
     current kernel: issuing a call through a handle captured before a
     freeze would originate it from the old host after a migration — the
     reply then chases the process to its new host, finds no outstanding
     send there, and only a retransmission recovers it. Gating first makes
     the common path clean; the IPC machinery still absorbs the residual
     race of a freeze landing inside an already-entered call. *)
  let do_io () =
    while debt.reads >= 1. do
      debt.reads <- debt.reads -. 1.;
      gate ();
      let k = Directory.current ctx lh_id in
      match
        File_server.Client.read k ~self ~server:env.Env.file_server
          ~path:(spec.Programs.prog_name ^ ".in")
          ~offset:0 ~length:io.Programs.read_bytes
      with
      | Ok _ -> ()
      | Error e -> failwith (spec.Programs.prog_name ^ ": read failed: " ^ e)
    done;
    while debt.writes >= 1. do
      debt.writes <- debt.writes -. 1.;
      gate ();
      let k = Directory.current ctx lh_id in
      match
        File_server.Client.write k ~self ~server:env.Env.file_server
          ~path:(spec.Programs.prog_name ^ ".out")
          ~offset:0 ~length:io.Programs.write_bytes
      with
      | Ok _ -> ()
      | Error e -> failwith (spec.Programs.prog_name ^ ": write failed: " ^ e)
    done
  in
  let left = ref (Time.of_sec spec.Programs.cpu_seconds) in
  (* Built once per program, not once per quantum. *)
  let must_release () = Logical_host.frozen lh in
  let on_slice served =
    Dirty_model.on_cpu model rng served;
    charge served
  in
  (* Account a served chunk: the file operations it makes owed and the
     CPU left. *)
  let commit served =
    let sec = Time.to_sec served in
    debt.reads <- debt.reads +. (io.Programs.reads_per_cpu_sec *. sec);
    debt.writes <- debt.writes +. (io.Programs.writes_per_cpu_sec *. sec);
    left := Time.sub !left served
  in
  (* The step between two quanta, taken by the CPU's slice timer at the
     end of each chunk this program runs on [k]'s CPU, whether or not
     another request waits: commit the chunk [served] and ask for the
     next one — but only when the loop below would not block before
     asking for it: more CPU is owed, no read or write falls due (the
     very sums [commit] stores), the host is not frozen, it still
     resolves to [k], and no page faults wait to be pulled. The CPU then
     keeps the program on it or re-queues it, as a return and a new
     call would. *)
  let next k served =
    let sec = Time.to_sec served in
    if
      Time.(!left > served)
      && debt.reads +. (io.Programs.reads_per_cpu_sec *. sec) < 1.
      && debt.writes +. (io.Programs.writes_per_cpu_sec *. sec) < 1.
      && (not (Logical_host.frozen lh))
      && (try Directory.current ctx lh_id == k with Failure _ -> false)
      && not (Kernel.faults_pending k lh_id)
    then begin
      commit served;
      Time.min Os_params.cpu_quantum !left
    end
    else Time.zero
  in
  let rec run () =
    if Time.(!left > Time.zero) then begin
      (* One chunk is one scheduler quantum; after a migration the next
         chunk lands on the new workstation's CPU. *)
      gate ();
      let k = Directory.current ctx lh_id in
      (* After a copy-on-reference migration, pages first-touched during
         the previous chunk are pulled from the old host here — a
         scheduling boundary, where blocking IPC is safe (the compute
         slice below holds the CPU). *)
      Kernel.service_page_faults k ~self ~lh:lh_id;
      Cpu.compute_sliced ~owner:lh_id ~gate ~must_release (Kernel.cpu k)
        ~priority:(Logical_host.priority lh)
        (Time.min Os_params.cpu_quantum !left)
        ~on_slice ~next:(next k);
      (* The CPU returns after the chunk [next] did not commit. *)
      commit (Time.min Os_params.cpu_quantum !left);
      do_io ();
      run ()
    end
  in
  run ();
  (* Terminal output goes through the display server co-resident with the
     originating workstation's frame buffer (Section 2.1). *)
  gate ();
  let k = Directory.current ctx lh_id in
  ignore
    (Display_server.Client.write k ~self ~server:env.Env.display
       (Printf.sprintf "%s: done (%s)" spec.Programs.prog_name
          (Time.to_string (Engine.now (Kernel.engine k)))))

let body ctx rng (p : Progtable.program) vp =
  run_spec ctx rng ~lh:p.Progtable.p_lh ~spec:p.Progtable.p_spec
    ~env:p.Progtable.p_env ~model:p.Progtable.p_model
    ~charge:(Progtable.charge_cpu p) ~self:(Vproc.pid vp)
