(** Checksum-guarded toy AES — the attack-campaign target kernel
    (extension beyond the paper's four kernels).

    A 4-word (128-bit) block cipher with AES's shape: key whitening,
    then 6 rounds of byte rotation, S-box substitution (a random 8-bit
    permutation looked up with [l.lbz]), a word mixing layer and
    AddRoundKey. Two countermeasures guard it: an additive checksum over
    the plaintext, round keys and S-box verified before encrypting, and
    double encryption with a word-for-word ciphertext comparison. The
    output is [flag; c0..c3]; the metric returns an attack class, not an
    error magnitude. *)

val create : ?seed:int -> unit -> Bench.t

val class_correct : float
(** 0: finished with the golden output. *)

val class_detected : float
(** 1: a guard raised the detection flag. *)

val class_attack_success : float
(** 2: flag clear and exactly one ciphertext word corrupted — the
    differential-fault-analysis-usable outcome an attacker wants. *)

val class_sdc : float
(** 3: flag clear but the output is wrong more broadly (silent data
    corruption). *)

val data_word_range : Bench.t -> int * int
(** Word-address window [\[lo, hi)] covering the kernel's sensitive data
    (plaintext, round keys, S-box, checksum and cipher state) — where
    the ["state"] attack model's flips actually hit the computation
    rather than unused memory. *)
