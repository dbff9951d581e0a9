let boundaries = [| 16; 64; 256; 1024; 8192; 32768 |]

let count = Array.length boundaries

let index bytes =
  if bytes < 0 then invalid_arg "Size_class.index: negative size";
  let i = ref 0 in
  while !i < count && bytes > Array.unsafe_get boundaries !i do
    incr i
  done;
  if !i < count then !i else -1
