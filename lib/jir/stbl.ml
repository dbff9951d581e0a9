include Hashtbl.Make (String)
