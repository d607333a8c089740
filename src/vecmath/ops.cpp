#include "vecmath/ops.h"

#include <cassert>
#include <cmath>

#include "vecmath/kernels.h"

namespace proximity {

void NormalizeL2(std::span<float> v) noexcept {
  const float norm2 = SquaredNorm(v);
  if (norm2 <= 0.f) return;
  const float inv = 1.f / std::sqrt(norm2);
  for (auto& x : v) x *= inv;
}

void Axpy(float alpha, std::span<const float> x, std::span<float> y) noexcept {
  assert(x.size() == y.size());
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

void Scale(std::span<float> v, float alpha) noexcept {
  for (auto& x : v) x *= alpha;
}

void MeanOf(std::span<const std::span<const float>> rows,
            std::span<float> out) noexcept {
  assert(!rows.empty());
  for (auto& x : out) x = 0.f;
  for (const auto& row : rows) {
    assert(row.size() == out.size());
    for (std::size_t i = 0; i < out.size(); ++i) out[i] += row[i];
  }
  const float inv = 1.f / static_cast<float>(rows.size());
  for (auto& x : out) x *= inv;
}

}  // namespace proximity
