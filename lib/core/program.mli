(** The standard program body.

    Runs a {!Programs.spec} as a simulated process: consume CPU in
    scheduler-quantum chunks (dirtying pages through the program's
    {!Dirty_model} in proportion to CPU actually granted), issue the
    spec's file-server I/O, and announce completion on the originating
    display. The body re-resolves its current kernel through the
    {!Directory} at every chunk, which is what makes it oblivious to
    migration — the only "special provision" it ever takes is the one V
    imposes on all programs: talk to the world through IPC. *)

val body :
  Directory.t -> Rng.t -> Progtable.program -> Vproc.t -> unit
(** Run to completion (or die with the logical host). Must execute as the
    program's root process. *)

val run_spec :
  Directory.t ->
  Rng.t ->
  lh:Logical_host.t ->
  spec:Programs.spec ->
  env:Env.t ->
  model:Dirty_model.t ->
  charge:(Time.span -> unit) ->
  self:Ids.pid ->
  unit
(** The body's engine, reusable by sub-programs running in the same
    logical host: [charge] accounts scheduled CPU (to the program record,
    or to the parent's for a sub-program). *)
