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

val module_of_frame : string -> string
(** The module a frame name belongs to: ["Kernel.scan_manifest"] is
    [Kernel], ["Stdlib__Hashtbl.find"] is [Stdlib__Hashtbl], and an
    executable's own ["Dune__exe__Workloads.run"] is [Workloads]. *)

val print_profile : string -> string list list -> unit
(** [print_profile name stacks] prints the top self and inclusive
    frames and the self time summed by module, each as a share of all
    samples. *)
