(** The host-side verdict cache: verify once, admit many.

    A table of verdicts under opaque string keys. The cache never computes
    a key and never judges a binary: the enclave derives the key from what
    it was delivered and hands {!lookup} the verifier pass to run on a
    miss, so the soundness decision stays inside the trusted consumer (see
    {!Deflection.Bootstrap.config}). The trust assumption this makes is
    that the table returns the verdict stored under the enclave's own key.

    Thread-safe: lookups are single-flight — concurrent sessions racing on
    the same uncached key block on the one in-flight verification instead
    of duplicating it, so hit/miss totals depend only on the request
    multiset, never on the domain schedule. The table never evicts on its
    own: its owner bounds it with {!trim} at points the schedule cannot
    move (a server trims each tenant at round boundaries). *)

module Verifier = Deflection_verifier.Verifier

type t

type stats = {
  hits : int;  (** lookups answered from (or merged into) a cached verdict *)
  misses : int;  (** lookups that had to run the verifier *)
  evictions : int;  (** entries removed by {!trim} *)
  entries : int;  (** current table size *)
}

val create : unit -> t
val stats : t -> stats

val stats_to_list : stats -> (string * int) list
(** [("hits", h); ("misses", m); ...] — for JSON/telemetry export. *)

val lookup :
  t -> key:string -> verify:(unit -> Verifier.verdict) -> Verifier.verdict * [ `Hit | `Miss ]
(** The verdict under [key], running [verify] under a fresh claim when
    there is none: [`Hit] for an answer from (or merged into) a cached or
    in-flight verdict, [`Miss] when this call ran [verify]. A raised
    [verify] drops the claim and wakes waiters, who convert to a fresh
    miss — a crashed verification never wedges its key. Partially
    applied, this is the lookup {!Deflection.Bootstrap.config} takes. *)

val set_epoch : t -> int -> unit
(** Stamp every later lookup and preload with this recency (initially 0)
    until the next call. A server sets the epoch to its round number so
    that victim order under {!trim} depends only on {e which} rounds
    touched an entry, not on the domain schedule within a round. *)

val trim : t -> capacity:int -> int
(** Evict settled entries least-recently-used-first (ties on the epoch
    stamp break lexicographically on the key) until at most [capacity]
    remain; returns how many were evicted and counts them in {!stats}.
    In-flight claims are never evicted. *)

val export : t -> (string * Verifier.verdict) list
(** All settled (key, verdict) pairs, sorted by key — the snapshot a
    persistence layer seals. In-flight claims are excluded. *)

val preload : t -> key:string -> Verifier.verdict -> unit
(** Insert a verdict recovered from trusted storage. Never overwrites a
    live entry and does not touch hit/miss counters — a reloaded cache's
    stats measure only post-restart traffic. *)
