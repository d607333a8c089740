// Similarity metrics supported by the indexes and the Proximity cache.
//
// The paper (§2.2) notes the metric is "typically L2, cosine, or
// inner-product, and is fixed before deployment", and the cache "adopts the
// same distance function as the underlying vector database" (§3.1). Every
// index therefore exposes its Metric, and ProximityCache copies it.
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>

namespace proximity {

enum class Metric {
  kL2,            // squared Euclidean distance (smaller = closer)
  kInnerProduct,  // negated inner product (smaller = closer)
  kCosine,        // cosine distance 1 - cos(a, b) (smaller = closer)
};

/// The highest Metric value; snapshot loaders reject stored values past it.
inline constexpr Metric kLastMetric = Metric::kCosine;

inline std::string_view MetricName(Metric m) noexcept {
  switch (m) {
    case Metric::kL2:
      return "l2";
    case Metric::kInnerProduct:
      return "ip";
    case Metric::kCosine:
      return "cosine";
  }
  return "?";
}

inline Metric MetricFromName(std::string_view name) {
  if (name == "l2") return Metric::kL2;
  if (name == "ip" || name == "inner_product") return Metric::kInnerProduct;
  if (name == "cosine" || name == "cos") return Metric::kCosine;
  throw std::invalid_argument("unknown metric: " + std::string(name));
}

}  // namespace proximity
