// One ISA level's kernel table: simd_lanes.h instantiated at
// PROXIMITY_LANES floats per vector. vecmath/CMakeLists.txt compiles this
// file once per ISA, each time with that ISA's flags and with
// PROXIMITY_LANES_TABLE naming the accessor it defines (Avx2Table,
// Avx512Table or NeonTable). The accessor is the only symbol the object
// exports; tests/isa_symbols.sh checks that.
#include "vecmath/simd_lanes.h"

namespace proximity::detail {

const KernelTable* PROXIMITY_LANES_TABLE() noexcept {
  static constexpr KernelTable kTable = MakeKernelTable<PROXIMITY_LANES>();
  return &kTable;
}

}  // namespace proximity::detail
