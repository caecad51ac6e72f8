// StreamBuffer FIFO semantics, positions (p_ij), availability maps;
// Playback engine timing, stalls and gates; RateBudget; BandwidthSampler.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "stream/bandwidth.hpp"
#include "stream/playback.hpp"
#include "stream/stream_buffer.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace gs::stream {
namespace {

TEST(StreamBuffer, InsertContainsEvict) {
  StreamBuffer buffer(3);
  EXPECT_EQ(buffer.insert(10), kNoSegment);
  EXPECT_EQ(buffer.insert(11), kNoSegment);
  EXPECT_EQ(buffer.insert(12), kNoSegment);
  EXPECT_EQ(buffer.size(), 3u);
  // Fourth insert evicts the FIFO-oldest (10).
  EXPECT_EQ(buffer.insert(13), 10);
  EXPECT_FALSE(buffer.contains(10));
  EXPECT_TRUE(buffer.contains(13));
  EXPECT_EQ(buffer.eviction_count(), 1u);
}

TEST(StreamBuffer, DuplicateInsertIgnored) {
  StreamBuffer buffer(3);
  buffer.insert(5);
  EXPECT_EQ(buffer.insert(5), kNoSegment);
  EXPECT_EQ(buffer.size(), 1u);
}

TEST(StreamBuffer, FifoIsInsertionOrderNotIdOrder) {
  StreamBuffer buffer(2);
  buffer.insert(20);
  buffer.insert(10);  // out of id order
  EXPECT_EQ(buffer.insert(30), 20) << "oldest *inserted* evicted";
  EXPECT_TRUE(buffer.contains(10));
}

TEST(StreamBuffer, PositionFromTail) {
  // Paper Table 2: position is distance from the buffer tail; the paper's
  // rarity (eq. 8) uses position/B as replacement probability, so the
  // newest segment must have the smallest position.
  StreamBuffer buffer(10);
  buffer.insert(1);
  buffer.insert(2);
  buffer.insert(3);
  EXPECT_EQ(buffer.position_from_tail(3), 1u);
  EXPECT_EQ(buffer.position_from_tail(2), 2u);
  EXPECT_EQ(buffer.position_from_tail(1), 3u);
  EXPECT_EQ(buffer.position_from_tail(99), 0u) << "absent segment";
}

TEST(StreamBuffer, PositionSurvivesEviction) {
  StreamBuffer buffer(3);
  buffer.insert(1);
  buffer.insert(2);
  buffer.insert(3);
  buffer.insert(4);  // evicts 1
  EXPECT_EQ(buffer.position_from_tail(1), 0u);
  EXPECT_EQ(buffer.position_from_tail(2), 3u);
  EXPECT_EQ(buffer.position_from_tail(4), 1u);
}

TEST(StreamBuffer, OldestPositionNeverExceedsCapacity) {
  StreamBuffer buffer(50);
  for (SegmentId id = 0; id < 500; ++id) {
    buffer.insert(id);
    const SegmentId oldest = buffer.oldest();
    EXPECT_LE(buffer.position_from_tail(oldest), 50u);
  }
}

TEST(StreamBuffer, MaxIdTracking) {
  StreamBuffer buffer(3);
  EXPECT_EQ(buffer.max_id(), kNoSegment);
  buffer.insert(7);
  buffer.insert(3);
  EXPECT_EQ(buffer.max_id(), 7);
  buffer.insert(9);
  EXPECT_EQ(buffer.max_id(), 9);
  // Evicting the max triggers a rescan.
  StreamBuffer small(2);
  small.insert(10);
  small.insert(4);
  small.insert(5);  // evicts 10, the max
  EXPECT_EQ(small.max_id(), 5);
}

TEST(StreamBuffer, PresenceBitsetTracksContents) {
  StreamBuffer buffer(2);
  buffer.insert(0);
  buffer.insert(1);
  buffer.insert(2);  // evicts 0
  const auto& presence = buffer.presence();
  EXPECT_FALSE(presence.test(0));
  EXPECT_TRUE(presence.test(1));
  EXPECT_TRUE(presence.test(2));
}

TEST(StreamBuffer, BuildMapWindowEndsAtNewest) {
  StreamBuffer buffer(600);
  for (SegmentId id = 0; id < 700; ++id) buffer.insert(id);
  const auto map = buffer.build_map(600);
  EXPECT_EQ(map.base(), 100);
  EXPECT_TRUE(map.available(100));
  EXPECT_TRUE(map.available(699));
  EXPECT_FALSE(map.available(99));
  EXPECT_EQ(map.available_count(), 600u);
}

TEST(StreamBuffer, BuildMapEmptyBuffer) {
  StreamBuffer buffer(10);
  const auto map = buffer.build_map(600);
  EXPECT_EQ(map.available_count(), 0u);
}

// Textbook FIFO buffer: ids in insertion order plus id -> insertion
// sequence number.  The reference the ring + flat-map buffer must match.
struct ReferenceBuffer {
  explicit ReferenceBuffer(std::size_t cap) : capacity(cap) {}

  std::size_t capacity;
  std::deque<SegmentId> order;
  std::unordered_map<SegmentId, std::uint64_t> sequence;
  std::uint64_t next_sequence = 1;

  SegmentId insert(SegmentId id) {
    if (sequence.count(id) != 0) return kNoSegment;
    order.push_back(id);
    sequence[id] = next_sequence++;
    if (order.size() <= capacity) return kNoSegment;
    const SegmentId victim = order.front();
    order.pop_front();
    sequence.erase(victim);
    return victim;
  }
  [[nodiscard]] std::size_t position_from_tail(SegmentId id) const {
    const auto it = sequence.find(id);
    return it == sequence.end() ? 0 : static_cast<std::size_t>(next_sequence - it->second);
  }
  [[nodiscard]] SegmentId max_id() const {
    return order.empty() ? kNoSegment : *std::max_element(order.begin(), order.end());
  }
  [[nodiscard]] std::size_t held_in(SegmentId lo, SegmentId hi) const {
    return static_cast<std::size_t>(std::count_if(
        order.begin(), order.end(), [&](SegmentId id) { return id >= lo && id <= hi; }));
  }
};

TEST(StreamBuffer, MatchesReferenceFifoOnRandomWorkload) {
  // Same victims, max, ends, positions and map as the reference, under
  // mostly fresh ids with duplicates and out-of-order re-inserts.
  util::Rng rng(321);
  StreamBuffer buffer(32);
  ReferenceBuffer model(32);
  SegmentId next = 0;
  for (int step = 0; step < 5000; ++step) {
    SegmentId id;
    if (rng.uniform_int(0, 9) < 7) {
      id = next++;
    } else {
      id = rng.uniform_int(0, next > 0 ? next - 1 : 0);
    }
    EXPECT_EQ(buffer.insert(id), model.insert(id)) << "step " << step;
    ASSERT_EQ(buffer.size(), model.order.size());
    EXPECT_EQ(buffer.max_id(), model.max_id());
    EXPECT_EQ(buffer.oldest(), model.order.front());
    EXPECT_EQ(buffer.newest(), model.order.back());
    const SegmentId probe = rng.uniform_int(0, next > 0 ? next - 1 : 0);
    EXPECT_EQ(buffer.contains(probe), model.sequence.count(probe) != 0) << "step " << step;
    EXPECT_EQ(buffer.position_from_tail(probe), model.position_from_tail(probe));
  }
  const auto map = buffer.build_map(64);
  EXPECT_EQ(map.base(), std::max<SegmentId>(0, model.max_id() - 63));
  EXPECT_EQ(map.available_count(), model.held_in(map.base(), model.max_id()));
}

// ---------------------------------------------------------------- playback

TEST(Playback, StartAndAdvance) {
  Playback pb(10.0);
  EXPECT_FALSE(pb.started());
  pb.start(0, 0.0);
  EXPECT_TRUE(pb.started());
  std::vector<std::pair<SegmentId, double>> plays;
  const auto has = [](SegmentId) { return true; };
  const auto on_play = [&](SegmentId id, double t) { plays.emplace_back(id, t); };
  pb.advance(0.35, has, on_play);
  // Due times 0.0, 0.1, 0.2, 0.3 have elapsed.
  ASSERT_EQ(plays.size(), 4u);
  EXPECT_EQ(plays[0].first, 0);
  EXPECT_DOUBLE_EQ(plays[3].second, 0.3);
  EXPECT_EQ(pb.cursor(), 4);
}

TEST(Playback, ExactTimestampsAcrossLazyCalls) {
  // Calling advance late must still assign each segment its theoretical
  // due time (event-free exactness).
  Playback pb(10.0);
  pb.start(0, 0.0);
  std::vector<double> times;
  pb.advance(1.05, [](SegmentId) { return true; },
             [&](SegmentId, double t) { times.push_back(t); });
  ASSERT_EQ(times.size(), 11u);
  for (std::size_t i = 0; i < times.size(); ++i) {
    EXPECT_NEAR(times[i], 0.1 * static_cast<double>(i), 1e-9);
  }
}

TEST(Playback, StallResumesAtArrival) {
  Playback pb(10.0);
  pb.start(0, 0.0);
  std::vector<std::pair<SegmentId, double>> plays;
  bool have1 = false;
  const auto has = [&](SegmentId id) { return id == 0 || (id == 1 && have1) || id > 1; };
  const auto on_play = [&](SegmentId id, double t) { plays.emplace_back(id, t); };
  pb.advance(0.5, has, on_play);  // plays 0 at 0.0, stalls on 1 (due 0.1)
  ASSERT_EQ(plays.size(), 1u);
  // Segment 1 arrives at t = 0.7: stall of 0.6 s.
  have1 = true;
  pb.notify_arrival(1, 0.7);
  pb.advance(0.7, has, on_play);
  ASSERT_EQ(plays.size(), 2u);
  EXPECT_DOUBLE_EQ(plays[1].second, 0.7) << "resumed at arrival, not retroactively";
  EXPECT_NEAR(pb.stall_time(), 0.6, 1e-9);
  // Subsequent segments continue from the resumed schedule.
  pb.advance(0.85, has, on_play);
  ASSERT_EQ(plays.size(), 3u);
  EXPECT_DOUBLE_EQ(plays[2].second, 0.8);
}

TEST(Playback, StallDetectedLazily) {
  // Even if advance() was never called while the segment was missing, an
  // arrival after the due time counts the stall.
  Playback pb(10.0);
  pb.start(0, 0.0);
  pb.notify_arrival(0, 0.5);  // first segment arrives late
  std::vector<double> times;
  pb.advance(0.5, [](SegmentId) { return true; },
             [&](SegmentId, double t) { times.push_back(t); });
  ASSERT_GE(times.size(), 1u);
  EXPECT_DOUBLE_EQ(times[0], 0.5);
  EXPECT_NEAR(pb.stall_time(), 0.5, 1e-9);
}

TEST(Playback, GateBlocksUntilReleased) {
  Playback pb(10.0);
  pb.start(0, 0.0);
  pb.set_gate(5);
  std::vector<SegmentId> played;
  const auto has = [](SegmentId) { return true; };
  const auto on_play = [&](SegmentId id, double) { played.push_back(id); };
  pb.advance(2.0, has, on_play);
  ASSERT_EQ(played.size(), 5u) << "segments 0..4 play; 5 is gated";
  EXPECT_EQ(pb.cursor(), 5);
  pb.release_gate(2.0);
  pb.advance(2.0, has, on_play);
  ASSERT_EQ(played.size(), 6u);
  EXPECT_EQ(played.back(), 5);
}

TEST(Playback, GateReleaseSetsDueToNow) {
  Playback pb(10.0);
  pb.start(0, 0.0);
  pb.set_gate(2);
  const auto has = [](SegmentId) { return true; };
  std::vector<double> times;
  const auto on_play = [&](SegmentId, double t) { times.push_back(t); };
  pb.advance(5.0, has, on_play);  // plays 0,1; gate at 2
  pb.release_gate(5.0);
  pb.advance(5.0, has, on_play);
  ASSERT_EQ(times.size(), 3u);
  EXPECT_DOUBLE_EQ(times[2], 5.0) << "gated segment plays at release time";
}

TEST(Playback, PlayedCountAccumulates) {
  Playback pb(10.0);
  pb.start(0, 0.0);
  pb.advance(0.95, [](SegmentId) { return true; }, [](SegmentId, double) {});
  EXPECT_EQ(pb.played_count(), 10u);
}

TEST(Playback, RandomArrivalsPlayAtMaxOfDueAndArrival) {
  // The arrival-clamp rule, checked against its closed form: segment k
  // plays at max(t[k-1] + 1/rate, arrival[k]) (t[-1] + 1/rate = the start
  // time), never before it arrived, and every clamp adds exactly its wait
  // to the stall time.  Arrivals come in random bursts so playback keeps
  // catching up with gaps.
  util::Rng rng(654);
  constexpr double kRate = 10.0;
  Playback pb(kRate);
  pb.start(0, 0.0);
  std::vector<double> arrival;
  const auto has = [&](SegmentId id) {
    return id >= 0 && static_cast<std::size_t>(id) < arrival.size();
  };
  double due = 0.0;  // the model's earliest play time of the next segment
  double stall = 0.0;
  SegmentId expected = 0;
  double now = 0.0;
  for (int step = 0; step < 300; ++step) {
    now += 0.01 * static_cast<double>(rng.uniform_int(1, 20));
    for (auto k = rng.uniform_int(0, 2); k > 0; --k) {
      pb.notify_arrival(static_cast<SegmentId>(arrival.size()), now);
      arrival.push_back(now);
    }
    pb.advance(now, has, [&](SegmentId id, double t) {
      ASSERT_EQ(id, expected);
      const double a = arrival[static_cast<std::size_t>(id)];
      if (a > due) {
        stall += a - due;
        due = a;
      }
      EXPECT_EQ(t, due) << "segment " << id;
      EXPECT_GE(t, a) << "segment " << id << " played before it arrived";
      EXPECT_LE(t, now);
      due += 1.0 / kRate;
      ++expected;
    });
    EXPECT_EQ(pb.cursor(), expected);
    EXPECT_DOUBLE_EQ(pb.stall_time(), stall);
  }
  EXPECT_EQ(pb.played_count(), static_cast<std::uint64_t>(expected));
  EXPECT_GT(stall, 0.0) << "workload should have exercised stalls";
}

// ---------------------------------------------------------------- budgets

TEST(RateBudget, ReplenishAndSpend) {
  RateBudget budget(10.0, 1.0);
  EXPECT_EQ(budget.whole(), 0u);
  budget.replenish(1.0);
  EXPECT_EQ(budget.whole(), 10u);
  budget.spend(3.0);
  EXPECT_EQ(budget.whole(), 7u);
}

TEST(RateBudget, CarryCap) {
  RateBudget budget(10.0, 1.0);
  budget.replenish(1.0);
  budget.replenish(1.0);  // no banking beyond one period
  EXPECT_EQ(budget.whole(), 10u);
  RateBudget banked(10.0, 2.0);
  banked.replenish(1.0);
  banked.replenish(1.0);
  EXPECT_EQ(banked.whole(), 20u);
}

TEST(RateBudget, FractionalRateAccumulates) {
  RateBudget budget(0.5, 4.0);
  budget.replenish(1.0);
  EXPECT_EQ(budget.whole(), 0u);
  budget.replenish(1.0);
  EXPECT_EQ(budget.whole(), 1u);
}

TEST(BandwidthSampler, PaperInboundStatistics) {
  // I in [10, 33.3] with mean 15 (300Kbps..1Mbps, average 450Kbps).
  const BandwidthSampler sampler = BandwidthSampler::paper_inbound();
  util::Rng rng(5);
  util::RunningStats stats;
  for (int i = 0; i < 200000; ++i) {
    const double x = sampler.sample(rng);
    EXPECT_GE(x, 10.0);
    EXPECT_LE(x, sampler.max());
    stats.add(x);
  }
  EXPECT_NEAR(stats.mean(), 15.0, 0.15);
}

TEST(BandwidthSampler, ArbitraryMeanHit) {
  const BandwidthSampler sampler(2.0, 10.0, 7.0);
  util::Rng rng(6);
  util::RunningStats stats;
  for (int i = 0; i < 100000; ++i) stats.add(sampler.sample(rng));
  EXPECT_NEAR(stats.mean(), 7.0, 0.1);
}

}  // namespace
}  // namespace gs::stream
