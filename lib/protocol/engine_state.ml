(** The coherence engine's state, shared by {!Engine} (which runs the
    protocol) and {!Invariant} (which checks it): the per-process,
    per-domain and cluster-wide records, the one encoding of line states
    in the state tables, and the accessors the inline checks call on
    every shared access.  Those accessors live here, next to [tab_get],
    so that they inline it without cross-module optimisation. *)

type miss_kind = MRead | MStore | MSc | MPrefetch

type miss = {
  m_block : int;
  m_kind : miss_kind;
  m_req : Ptypes.req_kind;
      (** the request kind on the wire, re-sent verbatim when a bounce
          (a [Home_hint]) reveals the request went to a stale home *)
  mutable m_done : bool;
  mutable m_sc_ok : bool;
  m_sc_store : (int * Alpha.Insn.width * int64) option;
  mutable m_stores : (int * Alpha.Insn.width * int64) list;
      (** stores recorded while the miss was outstanding, replayed over
          arriving data (non-blocking stores, Section 3.2.3) *)
}

type pstats = {
  mutable read_misses : int;
  mutable store_misses : int;
  mutable sc_misses : int;
  mutable intra_hits : int;
  mutable false_misses : int;
  mutable downgrades_direct : int;
  mutable downgrades_msg : int;
  mutable read_stall : float;
  mutable write_stall : float;
  mutable mb_stall : float;
  mutable messages_handled : int;
  mutable reissued_stores : int;
  mutable bounces : int;
      (** requests re-issued after a [Home_hint] (the home had moved) *)
}

type pcb = {
  pid : int;
  proc : Sim.Proc.t;
  dom : domain;
  eng : t;
  private_tab : Bytes.t;
  mailbox : Ptypes.msg Mchan.Mailbox.t;
  outstanding : (int, miss) Hashtbl.t;
  mutable n_outstanding_stores : int;
  in_app : bool ref;  (** false while in protocol/syscalls: enables direct downgrade *)
  mutable in_batch : bool;
  mutable batch_blocks : int list;
  mutable deferred_flags : int list;  (** blocks whose flag writes are delayed (Section 4.1) *)
  mutable watch_blocks : int list;  (** post-batch store-reissue watch *)
  mutable reissue : (int * Alpha.Insn.width * int64) list;  (** (addr, w, v) to re-issue *)
  mutable last_ll : int option;  (** block of the last LL whose line was exclusive *)
  mutable parked : Ptypes.msg list;
      (** replies that arrived ahead of their per-block sequence order *)
  stats : pstats;
}

and domain = {
  dom_id : int;
  dom_node : int;
  img : Memimg.t;
  shared_tab : Bytes.t;  (** node-level state, one byte per block *)
  mutable members : pcb list;
  dom_mailbox : Ptypes.msg Mchan.Mailbox.t;
  dir : Directory.t;
  pending_local : (int, local_txn) Hashtbl.t;
      (** recalls waiting for intra-node private-table downgrades *)
  applied_seq : (int, int) Hashtbl.t;
      (** per block: how many home-originated ordered messages were applied *)
  mutable parked_dom : Ptypes.msg list;
      (** invalidations/recalls that arrived ahead of sequence order *)
  home_hint : (int, int) Hashtbl.t;
      (** this domain's (possibly stale) view of migrated homes: blocks
          absent from the table are assumed to live at their static home.
          Updated by [Home_hint] bounces and by the domain's own
          transfers; never consulted when [Config.homing = Static]. *)
  mutable homes_in : int;  (** directory entries this domain received *)
  mutable homes_out : int;  (** directory entries this domain gave away *)
  mutable dom_bounces : int;  (** hints received after requests hit a stale home *)
}

and local_txn = { mutable lt_awaiting : int; lt_to_shared : bool }

and rstat = {
  mutable r_read_misses : int;
  mutable r_store_misses : int;
  mutable r_invals : int;
  mutable r_recalls : int;
  mutable r_data_bytes : int;  (** payload bytes moved in data replies/writebacks *)
}

and transfer = { tr_from : int; tr_to : int }

and t = {
  cfg : Config.t;
  net : Mchan.Net.t;
  layout : Layout.t;  (** region layout; all state tables are per block *)
  mutable domains : domain list;  (** most-recent first; use [domain_by_id] *)
  domain_tbl : (int, domain) Hashtbl.t;
  pcbs : (int, pcb) Hashtbl.t;
  mutable home_domains : int array;
  home_override : int array;  (** per block: forced home domain, or -1 *)
  home : int array;
      (** authoritative per-block home — the sharded directory map.
          Filled at [init] from the static placement; updated the moment
          a transfer is initiated (the entry may still be in flight:
          [transfers] says so).  Domains route by their own hints, not by
          this array — only arrival-side checks may consult it. *)
  transfers : (int, transfer) Hashtbl.t;
      (** blocks whose directory entry currently lives in the transport *)
  rstats : rstat array;  (** per-region protocol traffic counters *)
  mutable migrations : int;  (** home transfers completed *)
  mutable transfer_acks : int;  (** transfer acks received by old homes *)
  mutable bounces : int;  (** requests bounced off a stale or in-flight home *)
  mutable initialized : bool;
  mutable mutation_fires : int;  (** times the seeded bug was exercised *)
  mutable invariant_checks : int;  (** per-message invariant sweeps run *)
  mutable legal_transients : int;
      (** times the checker observed (and exempted) the documented legal
          transient: a directory owner holding S/I while its exclusive
          grant is still in flight *)
}

(* --- state tables: one byte per block --- *)

let st_char = function
  | Ptypes.Invalid -> 'I'
  | Ptypes.Shared -> 'S'
  | Ptypes.Exclusive -> 'E'
  | Ptypes.Pending -> 'P'

let st_of_char = function
  | 'I' -> Ptypes.Invalid
  | 'S' -> Ptypes.Shared
  | 'E' -> Ptypes.Exclusive
  | 'P' -> Ptypes.Pending
  | c -> invalid_arg (Printf.sprintf "bad state char %c" c)

let tab_get tab block = st_of_char (Bytes.get tab block)
let tab_set tab block s = Bytes.set tab block (st_char s)

let domain_by_id t id = Hashtbl.find t.domain_tbl id

(** [home_domain_of_block t b] — the block's current home: where its
    directory entry lives, or (if a transfer is in flight) where it will
    land.  Authoritative — an omniscient view only arrival-side checks
    and the invariant checker may use; request routing goes through each
    domain's own hint table. *)
let home_domain_of_block t b = t.home.(b)

let msg_block = function
  | Ptypes.Request { block; _ }
  | Ptypes.Data_reply { block; _ }
  | Ptypes.Ack_exclusive { block; _ }
  | Ptypes.Sc_result { block; _ }
  | Ptypes.Invalidate { block; _ }
  | Ptypes.Recall { block; _ }
  | Ptypes.Writeback { block; _ }
  | Ptypes.Inval_ack { block; _ }
  | Ptypes.Downgrade { block; _ }
  | Ptypes.Downgrade_ack { block; _ }
  | Ptypes.Home_transfer { block; _ }
  | Ptypes.Home_transfer_ack { block; _ }
  | Ptypes.Home_hint { block; _ } ->
      block

(* --- the accessors of the inline checks --- *)

(** [block_state pcb addr] — the (private, domain-shared) state pair of
    the coherence block covering [addr]. *)
let block_state pcb addr =
  let b = Layout.block_of_addr pcb.eng.layout addr in
  (tab_get pcb.private_tab b, tab_get pcb.dom.shared_tab b)

(** [private_state pcb addr] — just the private-table state of the block
    covering [addr]; the allocation-free form of [fst (block_state ...)]
    for the inline-check fast paths. *)
let private_state pcb addr =
  tab_get pcb.private_tab (Layout.block_of_addr pcb.eng.layout addr)

(** [raw_write pcb addr w v] — the store instruction itself, against the
    domain's image.  Stores are intercepted: while a miss is outstanding
    on the block, the store is recorded for replay over the arriving
    data; after a batch, stores to since-downgraded lines are recorded
    for reissue (Section 4.1). *)
let raw_write pcb addr w v =
  (* The dominant case — no miss outstanding, nothing watched — must not
     look up the block, hash or allocate. *)
  (if Hashtbl.length pcb.outstanding > 0 || pcb.watch_blocks <> [] then
     let b = Layout.block_of_addr pcb.eng.layout addr in
     match Hashtbl.find_opt pcb.outstanding b with
     | Some miss -> miss.m_stores <- (addr, w, v) :: miss.m_stores
     | None ->
         if List.mem b pcb.watch_blocks then begin
           let _, shared = block_state pcb addr in
           match shared with
           | Ptypes.Exclusive -> ()
           | Ptypes.Shared | Ptypes.Invalid | Ptypes.Pending ->
               pcb.reissue <- (addr, w, v) :: pcb.reissue
         end);
  Memimg.write ~pid:pcb.pid pcb.dom.img addr w v
