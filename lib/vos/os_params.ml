type rebind_mode = Broadcast_query | Forwarding

type t = {
  local_op : Time.span;
  frozen_check : Time.span;
  group_lookup : Time.span;
  give_up_after : Time.span;
  rebind : rebind_mode;
  bulk_pacing : Transfer.pacing;
  content_cache_bytes : int;
}

let default =
  {
    local_op = Time.of_us 500;
    frozen_check = Time.of_us 13;
    group_lookup = Time.of_us 100;
    give_up_after = Time.of_sec 5.;
    rebind = Broadcast_query;
    bulk_pacing = Transfer.v_pacing;
    content_cache_bytes = 0;
  }

let retransmit_interval = Time.of_ms 100.
let retransmit_backoff = 2.0
let retransmit_cap = Time.of_ms 800.
let retries_before_query = 3
let reply_cache_ttl = Time.of_sec 2.
let reservation_ttl = Time.of_sec 15.
let cpu_quantum = Time.of_ms 10.
