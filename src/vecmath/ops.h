// Elementary vector operations shared by the embedder, k-means, and tests.
#pragma once

#include <span>

namespace proximity {

/// Scales `v` to unit L2 norm in place; leaves zero vectors untouched.
void NormalizeL2(std::span<float> v) noexcept;

/// y += alpha * x
void Axpy(float alpha, std::span<const float> x, std::span<float> y) noexcept;

/// v *= alpha
void Scale(std::span<float> v, float alpha) noexcept;

/// out = mean of the given rows (each a span of equal length). rows must be
/// non-empty and out must match their dimension.
void MeanOf(std::span<const std::span<const float>> rows,
            std::span<float> out) noexcept;

}  // namespace proximity
