(** The weight-free structural digest of lowered code — THE shared
    hash every backend cache keys on.

    A digest covers the instruction text (exact, including [%h] float
    immediates), the branch structure (labels and terminators) and the
    program's register/shared-memory footprint, but never the
    per-block execution weights or active fractions — the only lowered
    artifacts that depend on the launch geometry.  Variants differing
    only in TC/BC (or the problem size N) therefore hash identically
    and share every backend result keyed on the digest, while any
    one-instruction edit moves it.  Its keyers: the in-memory codegen
    and verdict caches and the [bt]/[verdict] artifact keys. *)

val program : Program.t -> string
(** Hex MD5 of a whole program: name, target, register/smem footprint
    and every block in layout order. *)
