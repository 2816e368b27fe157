// Immutable byte blocks shared by content: the table behind HydroCache's
// dependency lists (cache/hydro_types.h) and the storage layer's
// subscriber sets (storage/subscribers.h).
//
// shared_block() looks its bytes up in a thread-local table of live
// blocks (a probing index hashed over all the bytes, compared byte for
// byte) and returns the held block on a hit, so every holder of equal
// bytes shares one `Value`.  A miss allocates one exact-size block that
// the table keeps.  Blocks only the table still holds are swept once the
// table has doubled since its last sweep (and holds at least 1024), which
// keeps it within twice the live distinct blocks.  Only a sweep scans the
// table.  No simulated decision reads a block's address, so sharing
// changes no schedule.
#pragma once

#include <string_view>

#include "common/types.h"

namespace faastcc {

// This thread's block holding `bytes`; an empty Value for no bytes.
Value shared_block(std::string_view bytes);

}  // namespace faastcc
