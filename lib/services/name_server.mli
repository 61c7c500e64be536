(** Global name service.

    V resolves symbolic names through global servers plus a per-program
    name cache carried in the program's own address space — which is
    exactly why name bindings survive migration (Section 6: "place the
    state of a program's execution environment either in its address
    space or in global servers"). This server is the global half; the
    per-program cache is part of the program environment in [V_core]. *)

type t

val create : Kernel.t -> t
(** Start a name server process on the given workstation. *)

val pid : t -> Ids.pid

val register_direct : t -> name:string -> Ids.pid -> unit
(** Server-side registration, for wiring up a cluster before it runs. *)

val lookup_direct : t -> name:string -> Ids.pid option

(** {1 Protocol} *)

type Message.body +=
  | Ns_register of { name : string; who : Ids.pid }
  | Ns_lookup of { name : string }
  | Ns_binding of { name : string; who : Ids.pid }
  | Ns_unknown of string
  | Ns_ok

module Client : sig
  val register :
    Kernel.t -> self:Ids.pid -> server:Ids.pid -> name:string ->
    (unit, string) result

  val lookup :
    Kernel.t -> self:Ids.pid -> server:Ids.pid -> name:string ->
    (Ids.pid, string) result
end
