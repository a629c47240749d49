(** Deterministic, seed-driven fault injection for the Figure-3 workflow.

    The paper's security argument is fail-closed: whatever the untrusted
    world does — corrupted payloads, interrupted execution, hostile
    platforms — the enclave must never accept a non-compliant binary or
    release unsealed data. This module makes "whatever the untrusted world
    does" an enumerable, replayable object: a {!plan} is a finite list of
    faults to inject at named protocol {!site}s, generated from a single
    seed, serialized as part of the [deflection-chaos/1] campaign report so
    any failing case replays exactly.

    All randomness is drawn from PRNG streams derived ({!Deflection_util.Prng.derive})
    from the plan seed under chaos-private labels — enabling chaos never
    perturbs the AEX, co-location or workload streams (asserted by
    [suite_chaos]). *)

(** Where in the protocol a fault strikes. *)
type site =
  | Deliver_binary  (** sealed objfile, code provider -> enclave *)
  | Upload_data  (** sealed input records, data owner -> enclave *)
  | Return_outputs  (** sealed output records, enclave -> data owner *)
  | Provider_quote  (** quote inside the code provider's RA-TLS reply *)
  | Owner_quote  (** quote inside the data owner's RA-TLS reply *)
  | Ocall_result  (** host-side OCall service failure *)
  | Enclave_memory  (** bit flips in non-measured (data/stack) pages *)
  | Aex_schedule  (** interrupt storm *)
  | Interp_fuel  (** watchdog fuel exhaustion *)
  | Persist_seal  (** sealed verdict-cache write to untrusted host storage *)
  | Persist_load  (** sealed verdict-cache read back from host storage *)
  | Ingress  (** server admission queue *)
  | Serve_loop  (** the serving loop itself (abrupt death) *)

val site_label : site -> string
val site_of_label : string -> site option

val all_sites : site list
(** Every site, in declaration order — the histogram axis of campaign
    reports. *)

(** What a man-in-the-middle does to one sealed record in transit. *)
type channel_action = Bit_flip | Truncate | Drop | Duplicate | Replay

val action_label : channel_action -> string
val action_of_label : string -> channel_action option

type fault =
  | Channel_fault of { site : site; action : channel_action }
      (** perturb the next transmission at [site] (a transport site) *)
  | Quote_corrupt of { site : site }
      (** flip a bit in the serialized quote ([Provider_quote] /
          [Owner_quote]) *)
  | Ocall_fail of { nth : int; times : int }
      (** the [nth] OCall (1-based) fails [times] consecutive host-side
          attempts; [times] beyond the retry budget makes the failure
          permanent *)
  | Mem_flip of { flips : int }
      (** [flips] single-bit flips at chaos-chosen addresses in the
          non-measured data/stack regions, applied before execution *)
  | Aex_storm of { interval : int }
      (** override the AEX mean interval (small = storm) *)
  | Fuel_limit of { fuel : int }
      (** impose a watchdog fuel budget on the interpreter *)
  | Torn_write of { round : int; frac16 : int }
      (** the sealed-cache write in server round [round] is torn: only the
          first [frac16]/16 of the bytes reach the disk *)
  | Stale_segment of { segment : int }
      (** at the next sealed-cache load, the host replays segment
          [segment mod n] from the {e previous} on-disk generation *)
  | Mac_corrupt of { segment : int }
      (** at the next sealed-cache load, segment [segment mod n]'s MAC is
          corrupted *)
  | Queue_storm of { round : int; burst : int }
      (** [burst] extra requests slam the ingress queue in server round
          [round] *)
  | Kill_point of { round : int }
      (** the serving loop dies abruptly (no drain, no seal) in round
          [round] *)

val fault_site : fault -> site

(** A replayable fault schedule: everything the engine will do is a pure
    function of this value. *)
type plan = { seed : int64; faults : fault list }

val generate : seed:int64 -> plan
(** Derive a plan (1-3 faults) from [seed]. Deterministic: equal seeds
    yield equal plans. *)

val generate_server : seed:int64 -> plan
(** Like {!generate} but over the server/persistence fault classes
    (torn writes, stale-segment replay, MAC corruption, queue storms,
    kill points). A separate derivation label keeps existing {!generate}
    seeds replaying the exact plans they always produced. *)

val plan_to_json : plan -> Deflection_telemetry.Json.t
val plan_of_json : Deflection_telemetry.Json.t -> (plan, string) result
(** Round-trip: [plan_of_json (plan_to_json p) = Ok p]. *)

(** {2 Engine}

    One engine drives one protocol run. Each fault in the plan fires at
    most once (except [Ocall_fail], which burns [times] attempts), so a
    bounded retry always reaches a clean transmission — the deterministic
    analogue of a transient network fault. *)

type t

val disabled : t
(** Injects nothing; every hook is the identity. The default of all
    chaos-aware entry points. *)

val of_plan : plan -> t
(** Fresh engine for one run of [plan]. Engines are stateful (one-shot
    faults, replay capture buffer); build a new one per run. *)

val enabled : t -> bool

val plan : t -> plan option
(** [None] for {!disabled}. *)

val fired : t -> (string * int) list
(** Histogram of faults actually injected so far, as
    [(site label, count)], over {!all_sites} order (zero entries
    included). *)

val backoff_seed : t -> int64
(** Sub-seed for the resilience layer's backoff jitter (label
    ["retry-jitter"] of the plan seed; a fixed constant for
    {!disabled}). *)

(** {2 Injection hooks} — called by the session/bootstrap plumbing. *)

val transport : t -> site:site -> bytes -> bytes list
(** Pass one sealed record through the (possibly hostile) transport:
    the list of records actually delivered, in order. Identity ([[m]])
    unless a pending [Channel_fault] for [site] fires: bit-flip and
    truncation corrupt a copy, drop delivers nothing, duplicate delivers
    the record twice, replay prepends a previously captured record.
    Every genuine record is also captured as future replay material. *)

val corrupt_quote : t -> site:site -> bytes -> bytes
(** Serialized-quote pass-through; a pending [Quote_corrupt] for [site]
    flips one bit. *)

val ocall_fails : t -> bool
(** Ask before each host-side OCall service attempt; [true] means the
    host fails this attempt. The [nth] cursor counts service attempts;
    once a fault arms, the following [times - 1] attempts (the wrapper's
    retries) also fail, so [times] beyond the retry budget yields a
    permanent [Ocall_failed]. *)

val mem_flip_plan : t -> lo:int -> hi:int -> (int * int) list
(** [(byte address, bit)] flips to apply to the non-measured region
    [\[lo, hi)]; empty unless a [Mem_flip] fault is pending. Fires the
    fault. *)

val aex_interval_override : t -> int option
(** [Some interval] iff an [Aex_storm] fault is pending (fires it). *)

val fuel_override : t -> int option
(** [Some fuel] iff a [Fuel_limit] fault is pending (fires it). *)

(** {2 Server / persistence hooks} — called by [lib/server]. *)

val torn_write : t -> round:int -> int option
(** [Some frac16] iff a [Torn_write] for this server round is pending
    (fires it): the persistence layer then writes only the first
    [frac16]/16 of the sealed bytes. *)

val stale_segment : t -> int option
(** [Some segment] iff a [Stale_segment] fault is pending (fires it);
    applied by the loader to the bytes the host serves. *)

val mac_corrupt : t -> int option
(** [Some segment] iff a [Mac_corrupt] fault is pending (fires it). *)

val queue_storm : t -> round:int -> int option
(** [Some burst] iff a [Queue_storm] for this round is pending (fires
    it): the load generator then slams [burst] extra requests into the
    ingress queue. *)

val kill_point : t -> round:int -> bool
(** [true] iff a [Kill_point] for this round is pending (fires it): the
    serving loop must die abruptly — no drain, no seal. *)
