(** Decentralized host selection.

    "When the user specifies [*], a query is sent requesting a response
    from those hosts with a reasonable amount of processor and memory
    resources available ... it simply selects the program manager that
    responds first since that is generally the least loaded host. This
    simple mechanism provides a decentralized implementation of
    scheduling that performs well at minimal cost for reasonably small
    systems." (Section 2.1.) There is no central queue and no global
    state: selection is one multicast and the first answer.

    The mechanics — multicast an offer to a scheduling group, parse the
    bids, commit to one — live in {!Spine} and are shared by every
    {!Placement} policy; the policies differ only in which group(s) they
    query and in what order; {!Placement.select_any} and
    {!Placement.select_host} are the entry points callers use. *)

(** Typed trace events: one [Sched_query] per multicast offer request,
    one [Sched_bid] per volunteer heard (in response order), one
    [Sched_select] when a destination is committed to, and one
    [Sched_timeout] when a query's window closes without a usable bid —
    distinguishing "no idle host volunteered" from silence caused by
    lost frames. [host] is the querying host; [Sched_bid.bidder] is the
    answering one (a bid names only its bidder, as selection takes the
    first to answer); [Sched_query.bytes] is 0
    for named-host queries; [Sched_timeout.target] is ["*"] for
    group-wide offers, a pod label for pod tiers, or the host name for
    named-host queries. *)
type Tracer.event +=
  | Sched_query of { host : string; bytes : int }
  | Sched_bid of { host : string; bidder : string; responded_in : Time.span }
  | Sched_select of { host : string; dest : string }
  | Sched_timeout of { host : string; target : string }

type selection = {
  s_pm : Ids.pid;  (** Program manager to send the creation request to. *)
  s_host : string;  (** The bidder's workstation. *)
  s_responded_in : Time.span;
      (** Query-to-answer latency — the paper's measured 23 ms. *)
}

(** The shared candidate spine: the mechanics every placement policy is
    built from. One call is one multicast offer to one scheduling group
    plus the first-responder collection over its bids. *)
module Spine : sig
  val select_in_group :
    ?health:Health.t ->
    ?exclude:string list ->
    ?label:string ->
    Kernel.t ->
    group:Ids.pid ->
    self:Ids.pid ->
    bytes:int ->
    (selection, string) result
  (** Multicast an offer to [group] and take the first acceptable
      responder. [exclude] omits hosts; under [health] a [Suspect]
      bidder is kept only as a timeout-capped fallback; [label] names
      the tier in the [Sched_timeout] event. With
      [group = Ids.program_manager_group] and default [label], this is
      the flat policy's {!Placement.select_any}. *)

  val select_host :
    ?health:Health.t ->
    Kernel.t ->
    self:Ids.pid ->
    host:string ->
    (selection, string) result
  (** "[@ machine]": only the named host may answer. With a [health]
      view that marks the host [Dead], fails immediately instead of
      waiting out the select timeout. *)

  val candidates :
    ?exclude:string list ->
    ?group:Ids.pid ->
    Kernel.t ->
    self:Ids.pid ->
    bytes:int ->
    window:Time.span ->
    selection list
  (** Every volunteer heard within the window, in response order — the
      load-survey building block ("facilities for querying ... all
      workstations in the system", Section 2). [group] defaults to the
      global program-manager group. *)
end
