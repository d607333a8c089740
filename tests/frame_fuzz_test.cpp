// Seeded mutation fuzz loop over the PRXQ/PRXR framing (DESIGN.md §9).
//
// Every golden frame under tests/golden/ is mutated a fixed number of
// times: bit flips, byte overwrites, truncations, and edits to the length
// prefix, the flag word and the trailing count word (a request's text
// length, a response's document count). Each mutant goes to both
// ParseFrame overloads. Whatever the bytes, a parse must return a
// ParseResult (no throw, and no report under the ASan+UBSan build), never
// claim more bytes than it was given, and a kOk result must re-encode to
// a frame that parses back to the same struct. Plain gtest with a fixed
// seed: any C++20 compiler builds it and a failure replays exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "common/rng.h"
#include "net/protocol.h"

namespace proximity {
namespace {

using Bytes = std::vector<std::uint8_t>;

constexpr std::size_t kMutantsPerFrame = 5000;
constexpr std::uint64_t kSeed = 20261019;

struct Golden {
  std::string name;
  Bytes bytes;
};

std::vector<Golden> ReadGoldens() {
  std::vector<Golden> goldens;
  for (const auto& entry :
       std::filesystem::directory_iterator(PROXIMITY_GOLDEN_DIR)) {
    if (entry.path().extension() != ".bin") continue;
    std::ifstream in(entry.path(), std::ios::binary);
    goldens.push_back({entry.path().filename().string(),
                       Bytes(std::istreambuf_iterator<char>(in),
                             std::istreambuf_iterator<char>())});
  }
  // Directory order is unspecified; the mutant stream must not be.
  std::sort(goldens.begin(), goldens.end(),
            [](const Golden& a, const Golden& b) { return a.name < b.name; });
  return goldens;
}

std::uint32_t GetU32(const Bytes& b, std::size_t at) {
  std::uint32_t v = 0;
  if (at + sizeof(v) <= b.size()) std::memcpy(&v, b.data() + at, sizeof(v));
  return v;
}

void PutU32(Bytes& b, std::size_t at, std::uint32_t v) {
  if (at + sizeof(v) <= b.size()) std::memcpy(b.data() + at, &v, sizeof(v));
}

// Byte offsets of the words the mutator edits by name.
struct Words {
  std::size_t flags = 0;
  std::size_t count = 0;
  std::uint32_t known_flags = 0;
};

Words WordsOf(const Bytes& frame) {
  // Request: [len][magic][id u64][flags]...[text_len][text].
  net::Request request;
  std::size_t used = 0;
  if (net::ParseFrame(frame, &used, &request) == net::ParseResult::kOk) {
    return {16, frame.size() - request.text.size() - sizeof(std::uint32_t),
            net::kReqFlagHasTenant | net::kReqFlagHasTrace |
                net::kReqFlagHasMutation | net::kReqFlagWantDistances};
  }
  // Response: [len][magic][id u64][status][flags][queue u64][server u64]
  // [ndocs]...
  return {20, 40,
          net::kFlagCacheHit | net::kFlagCoalesced | net::kFlagHasDistances};
}

// A value for a length or count word: near the original, at the
// framing's limits, or anything.
std::uint32_t EditedLength(std::uint32_t original, Rng& rng) {
  const std::uint32_t picks[] = {
      0u,
      1u,
      original - 1,
      original + 1,
      original + 8,
      static_cast<std::uint32_t>(net::kMaxFrameBytes),
      static_cast<std::uint32_t>(net::kMaxFrameBytes) + 1,
      0x7fffffffu,
      0xffffffffu,
      static_cast<std::uint32_t>(rng.Next64()),
  };
  return picks[rng.Below(std::size(picks))];
}

void MutateOnce(Bytes& m, const Words& words, Rng& rng) {
  switch (rng.Below(6)) {
    case 0:  // bit flips
      for (std::uint64_t n = 1 + rng.Below(4); n > 0 && !m.empty(); --n) {
        m[rng.Below(m.size())] ^=
            static_cast<std::uint8_t>(1u << rng.Below(8));
      }
      break;
    case 1:  // byte overwrites
      for (std::uint64_t n = 1 + rng.Below(4); n > 0 && !m.empty(); --n) {
        m[rng.Below(m.size())] = static_cast<std::uint8_t>(rng.Below(256));
      }
      break;
    case 2:  // truncation
      m.resize(rng.Below(m.size() + 1));
      break;
    case 3:  // the length prefix
      PutU32(m, 0, EditedLength(GetU32(m, 0), rng));
      break;
    case 4: {  // the flag word: toggle a known bit, or any value
      const std::uint32_t flags = GetU32(m, words.flags);
      const std::uint32_t bit = 1u << rng.Below(4);
      PutU32(m, words.flags,
             rng.Bernoulli(0.5) ? flags ^ (bit & words.known_flags)
                                : static_cast<std::uint32_t>(rng.Next64()));
      break;
    }
    default:  // the trailing count word
      PutU32(m, words.count, EditedLength(GetU32(m, words.count), rng));
      break;
  }
}

void ExpectSame(const net::Request& a, const net::Request& b) {
  EXPECT_EQ(a.id, b.id);
  EXPECT_EQ(a.flags, b.flags);
  EXPECT_EQ(a.deadline_us, b.deadline_us);
  EXPECT_EQ(a.tenant, b.tenant);
  EXPECT_EQ(a.trace_id, b.trace_id);
  EXPECT_EQ(a.trace_parent, b.trace_parent);
  EXPECT_EQ(a.mutation_op, b.mutation_op);
  EXPECT_EQ(a.mutation_target, b.mutation_target);
  EXPECT_EQ(a.text, b.text);
}

void ExpectSame(const net::Response& a, const net::Response& b) {
  EXPECT_EQ(a.id, b.id);
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.flags, b.flags);
  EXPECT_EQ(a.queue_ns, b.queue_ns);
  EXPECT_EQ(a.server_ns, b.server_ns);
  EXPECT_EQ(a.documents, b.documents);
  // Bits, not values: a mutant may carry NaN distances.
  ASSERT_EQ(a.distances.size(), b.distances.size());
  for (std::size_t i = 0; i < a.distances.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint32_t>(a.distances[i]),
              std::bit_cast<std::uint32_t>(b.distances[i]));
  }
}

struct Tally {
  std::size_t ok = 0;
  std::size_t need_more = 0;
  std::size_t error = 0;
};

template <typename Message>
void CheckParse(const Bytes& mutant, Tally& tally) {
  Message parsed;
  std::size_t consumed = 0;
  net::ParseResult result = net::ParseResult::kError;
  try {
    result = net::ParseFrame(mutant, &consumed, &parsed);
  } catch (const std::exception& e) {
    FAIL() << "ParseFrame threw: " << e.what();
  }
  ASSERT_LE(consumed, mutant.size());
  switch (result) {
    case net::ParseResult::kNeedMore:
      ++tally.need_more;
      return;
    case net::ParseResult::kError:
      ++tally.error;
      return;
    case net::ParseResult::kOk:
      ++tally.ok;
      break;
  }
  Bytes again;
  net::AppendFrame(again, parsed);
  Message reparsed;
  std::size_t reconsumed = 0;
  ASSERT_EQ(net::ParseFrame(again, &reconsumed, &reparsed),
            net::ParseResult::kOk);
  EXPECT_EQ(reconsumed, again.size());
  ExpectSame(parsed, reparsed);
}

TEST(FrameFuzzTest, MutatedGoldenFramesNeverBreakTheParser) {
  const std::vector<Golden> goldens = ReadGoldens();
  ASSERT_FALSE(goldens.empty()) << PROXIMITY_GOLDEN_DIR;
  Rng rng(kSeed);
  Tally requests, responses;
  for (const Golden& golden : goldens) {
    const Words words = WordsOf(golden.bytes);
    for (std::size_t i = 0; i < kMutantsPerFrame; ++i) {
      Bytes mutant = golden.bytes;
      for (std::uint64_t n = 1 + rng.Below(2); n > 0; --n) {
        MutateOnce(mutant, words, rng);
      }
      SCOPED_TRACE(testing::Message() << golden.name << " mutant " << i);
      CheckParse<net::Request>(mutant, requests);
      CheckParse<net::Response>(mutant, responses);
      if (HasFatalFailure() || HasNonfatalFailure()) return;
    }
  }
  // The mutants reach every outcome of both parsers, or the loop
  // exercised less than it claims.
  for (const Tally* tally : {&requests, &responses}) {
    EXPECT_GT(tally->ok, 0u);
    EXPECT_GT(tally->need_more, 0u);
    EXPECT_GT(tally->error, 0u);
  }
}

}  // namespace
}  // namespace proximity
