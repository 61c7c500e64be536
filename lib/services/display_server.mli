(** Display server.

    Programs never touch the frame buffer: "programs perform all terminal
    output via a display server that remains co-resident with the frame
    buffer it manages" (Section 2.1). That indirection is what lets a
    program run — and keep printing — anywhere in the cluster, and it is
    why the display server itself can never migrate. *)

type t

val create : Kernel.t -> t
(** Start the display server on a workstation; there is one per display. *)

val pid : t -> Ids.pid

val output : t -> string list
(** Everything written so far, oldest first — the simulated screen. *)

val line_count : t -> int

(** {1 Protocol} *)

type Message.body +=
  | Ds_write of string
  | Ds_ok

module Client : sig
  val write :
    Kernel.t -> self:Ids.pid -> server:Ids.pid -> string ->
    (unit, string) result
end
