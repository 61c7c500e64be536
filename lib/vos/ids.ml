type lh_id = int

type pid = { lh : lh_id; index : int }

let pid lh index = { lh; index }

let pid_equal a b = a.lh = b.lh && a.index = b.index

let pid_compare a b =
  let c = Int.compare a.lh b.lh in
  if c <> 0 then c else Int.compare a.index b.index

let pp_lh ppf lh = Format.fprintf ppf "lh-%d" lh
let pp_pid ppf p = Format.fprintf ppf "<%d.%d>" p.lh p.index
let pid_to_string p = Format.asprintf "%a" pp_pid p

let kernel_server_index = 1
let program_manager_index = 2
let first_user_index = 16

let kernel_server_of lh = { lh; index = kernel_server_index }
let program_manager_of lh = { lh; index = program_manager_index }

let is_local_group p = p.index < first_user_index

(* Group ids live in a reserved logical-host-id range that the allocator
   never hands out. *)
let group_lh_base = 0x7FFF0000

let program_manager_group = { lh = group_lh_base; index = 1 }

(* Pod scheduling groups occupy the reserved range above the global
   program-manager group, one logical-host id per pod. *)
let pod_group pod = { lh = group_lh_base + 1 + pod; index = 1 }

(* Every kernel server with content caching enabled joins this group;
   the file server multicasts image-chunk announcements to it so a pod
   launching the same program warms every member's cache at once. Index
   2 keeps its multicast id clear of the pod groups (index 1). *)
let content_group = { lh = group_lh_base; index = 2 }

module Lh_allocator = struct
  type t = { mutable next : int }

  let create () = { next = 1 }

  let fresh t =
    let id = t.next in
    t.next <- t.next + 1;
    assert (id < group_lh_base);
    id
end
