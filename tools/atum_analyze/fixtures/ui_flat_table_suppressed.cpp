// unordered-iter (suppressed): a per-record reset over a flat table —
// every record ends in the same state whatever the visit order.
#include "atum_mini.h"

namespace fx_ui_flat_table_suppressed {

void reset(atum::FlatMap<std::uint64_t, std::uint64_t>& tags) {
  // lint: unordered-iter-ok(per-record reset, order-free)
  for (auto& [id, tag] : tags) {
    tag = 0;
  }
}

}  // namespace fx_ui_flat_table_suppressed
