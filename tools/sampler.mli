(** A SIGPROF sampling profiler for one OCaml domain.

    A timer fires every {!period_s} of process CPU time and the handler
    records [Printexc.get_callstack]. The handler runs at the
    interrupted code's next poll point, so its stack is that code's
    stack. C primitives ([caml_hash], [compare]) and the minor GC have
    no OCaml frame: they are charged to the OCaml function that called
    them. A function that ocamlopt inlined has no frame either. A
    simulated process runs on its own effect stack, so its samples stop
    at the process body. Domains other than the calling one are not
    sampled. *)

val period_s : float

val sampled : (unit -> 'a) -> 'a * string list list
(** [sampled run] runs [run] under the timer and returns its result and
    one stack per sample, innermost frame first. *)

val fiber_cut_share : string list list -> float
(** The fraction of stacks that stop short of {!sampled}'s own frame, 0
    for no stacks. [Printexc.get_callstack] stops at a fiber boundary,
    so a sample taken inside a simulated process ends at the process
    body, and {!print_profile}'s inclusive shares do not count it for
    the frames that resumed the process (the engine's event loop, the
    timer or wake-up that ran it). *)

val module_of_frame : string -> string
(** The module a frame name belongs to: ["Kernel.scan_manifest"] is
    [Kernel], ["Stdlib__Hashtbl.find"] is [Stdlib__Hashtbl], and an
    executable's own ["Dune__exe__Workloads.run"] is [Workloads]. *)

val layers : (string * string list) list
(** Each layer of the simulator and the [lib/] modules it owns: engine,
    proc, cpu, kernel, net, services, placement, programs (managers,
    migration, remote execution), serve, check and cluster. *)

val charged_to_caller : string list
(** The shared [lib/] utilities ([Int_table], [Time], [Rng], ...) that
    belong to no layer: their time is charged to their caller's. *)

val layer_of_stack : string list -> string
(** The layer of the innermost frame whose module has one; ["other"]
    when no frame does. Utilities, [Stdlib], [Camlinternal] and an
    executable's own frames are thereby skipped. *)

val by_layer : string list list -> (string * int) list
(** Samples per {!layer_of_stack}, most first. The counts sum to the
    number of stacks. *)

val print_profile : string -> string list list -> unit
(** [print_profile name stacks] prints the {!fiber_cut_share}, the top
    self and inclusive frames and the self time summed by module and by
    layer, each as a share of all samples. *)
