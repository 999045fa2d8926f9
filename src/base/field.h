// Counters by stable dotted name: each stats struct that a bench
// reports has one table, `FieldsOf`, kept next to the struct
// ("vcopd.preemptions", "svc.drains", "iommu.walks"). A time's name
// ends in "_ps", its unit ("vim.t_dp_ps"). The benches pick their
// values from these tables by name (bench/common.h), and the
// whole-report checks compare two tables field by field.
#pragma once

#include <vector>

#include "base/types.h"

namespace vcop {

/// One counter by dotted name. A double enters as its bit pattern, so
/// equal values mean bit-identical fields.
struct Field {
  const char* name;
  u64 value;
};

/// Adds `delta`'s counts to `into`, field by field; both tables must
/// come from the same struct.
inline void Accumulate(std::vector<Field>& into,
                       const std::vector<Field>& delta) {
  for (usize i = 0; i < into.size(); ++i) into[i].value += delta[i].value;
}

}  // namespace vcop
