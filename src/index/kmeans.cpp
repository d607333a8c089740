#include "index/kmeans.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "vecmath/kernels.h"

namespace proximity {

namespace {

// k-means++ seeding: first centroid uniform, then proportional to D^2.
Matrix SeedPlusPlus(const Matrix& data, std::size_t k, Rng& rng) {
  const std::size_t n = data.rows();
  const std::size_t d = data.dim();
  Matrix centroids(0, d);
  centroids.Reserve(k);

  std::vector<float> min_dist(n, std::numeric_limits<float>::infinity());
  std::size_t first = static_cast<std::size_t>(rng.Below(n));
  centroids.AppendRow(data.Row(first));

  for (std::size_t c = 1; c < k; ++c) {
    const auto last = centroids.Row(centroids.rows() - 1);
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const float dd = L2SquaredDistance(data.Row(i), last);
      min_dist[i] = std::min(min_dist[i], dd);
      total += min_dist[i];
    }
    if (total <= 0.0) {
      // All remaining points coincide with centroids; pick uniformly.
      centroids.AppendRow(data.Row(static_cast<std::size_t>(rng.Below(n))));
      continue;
    }
    double target = rng.NextDouble() * total;
    std::size_t chosen = n - 1;
    for (std::size_t i = 0; i < n; ++i) {
      target -= min_dist[i];
      if (target <= 0.0) {
        chosen = i;
        break;
      }
    }
    centroids.AppendRow(data.Row(chosen));
  }
  return centroids;
}

}  // namespace

std::uint32_t NearestCentroid(const Matrix& centroids,
                              std::span<const float> v) noexcept {
  std::uint32_t best = 0;
  float best_d = std::numeric_limits<float>::infinity();
  for (std::size_t c = 0; c < centroids.rows(); ++c) {
    const float d = L2SquaredDistance(centroids.Row(c), v);
    if (d < best_d) {
      best_d = d;
      best = static_cast<std::uint32_t>(c);
    }
  }
  return best;
}

KMeansResult RunKMeans(const Matrix& data, std::size_t k,
                       const KMeansOptions& options) {
  const std::size_t n = data.rows();
  const std::size_t d = data.dim();
  if (n == 0) throw std::invalid_argument("RunKMeans: empty data");
  if (k == 0) throw std::invalid_argument("RunKMeans: k must be > 0");

  Rng rng(options.seed);
  KMeansResult result;

  if (k >= n) {
    // Degenerate: each point is its own centroid.
    result.centroids = Matrix(0, d);
    result.centroids.Reserve(n);
    result.assignment.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      result.centroids.AppendRow(data.Row(i));
      result.assignment[i] = static_cast<std::uint32_t>(i);
    }
    return result;
  }

  result.centroids = SeedPlusPlus(data, k, rng);
  result.assignment.assign(n, 0);
  std::vector<float> dists(n, 0.f);

  double prev_inertia = std::numeric_limits<double>::infinity();
  for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
    result.iterations = iter + 1;

    // Assignment step.
    auto assign_range = [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) {
        const std::uint32_t c = NearestCentroid(result.centroids, data.Row(i));
        result.assignment[i] = c;
        dists[i] = L2SquaredDistance(result.centroids.Row(c), data.Row(i));
      }
    };
    ThreadPool::Shared().ParallelForChunked(0, n, assign_range);

    double inertia = 0.0;
    for (std::size_t i = 0; i < n; ++i) inertia += dists[i];
    result.inertia = inertia;

    // Update step.
    Matrix sums(k, d);
    std::vector<std::size_t> counts(k, 0);
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t c = result.assignment[i];
      auto row = sums.MutableRow(c);
      const auto src = data.Row(i);
      for (std::size_t j = 0; j < d; ++j) row[j] += src[j];
      ++counts[c];
    }
    for (std::size_t c = 0; c < k; ++c) {
      if (counts[c] == 0) {
        // Re-seed an empty cluster from the farthest point.
        std::size_t far = static_cast<std::size_t>(
            std::max_element(dists.begin(), dists.end()) - dists.begin());
        const auto src = data.Row(far);
        std::copy(src.begin(), src.end(),
                  result.centroids.MutableRow(c).begin());
        dists[far] = 0.f;
        continue;
      }
      auto dst = result.centroids.MutableRow(c);
      const auto sum = sums.Row(c);
      const float inv = 1.f / static_cast<float>(counts[c]);
      for (std::size_t j = 0; j < d; ++j) dst[j] = sum[j] * inv;
    }

    if (prev_inertia < std::numeric_limits<double>::infinity()) {
      const double rel =
          prev_inertia > 0 ? (prev_inertia - inertia) / prev_inertia : 0.0;
      if (rel >= 0 && rel < options.tolerance) break;
    }
    prev_inertia = inertia;
  }

  // Final assignment against the updated centroids.
  auto final_assign = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      result.assignment[i] = NearestCentroid(result.centroids, data.Row(i));
    }
  };
  ThreadPool::Shared().ParallelForChunked(0, n, final_assign);
  return result;
}

}  // namespace proximity
