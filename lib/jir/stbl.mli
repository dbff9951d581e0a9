(** Tables keyed by names, with monomorphic hashing and equality.
    [String.hash] puts a name in the bucket the generic [Hashtbl.hash]
    would, so [iter] and [fold] visit a table in the same order as a
    polymorphic [Hashtbl] filled the same way. *)

include Hashtbl.S with type key = string
