// unordered-iter: a flat table's iteration order follows its hash just as
// an unordered container's does; the alias hides it, the canonical type
// (FlatTable) does not.
#include "atum_mini.h"

namespace fx_ui_flat_table {

struct Records {
  atum::FlatMap<std::uint64_t, std::uint64_t> by_node;
};

std::vector<std::uint64_t> ids(const Records& r) {
  std::vector<std::uint64_t> out;
  for (const auto& [id, horizon] : r.by_node) {  // expect: unordered-iter
    if (horizon != 0) out.push_back(id);
  }
  return out;
}

}  // namespace fx_ui_flat_table
