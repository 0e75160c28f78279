// HeartbeatChannel close semantics — the pinning tests heartbeat.h
// points at. close() is a *publisher-side seal*: beats already buffered
// must survive and stay drainable (the controller's last look at a
// finished shard sees the final beats, not an empty channel), while
// publish() after close is a silent no-op — it returns false, buffers
// nothing, and moves neither beats_published() nor beats_evicted(). A
// dying shard's late beat must never masquerade as an eviction.

#include "runtime/heartbeat.h"

#include <gtest/gtest.h>

namespace safecross::runtime {
namespace {

Heartbeat beat(std::uint64_t seq) {
  Heartbeat hb;
  hb.shard = 1;
  hb.seq = seq;
  return hb;
}

TEST(HeartbeatClose, BufferedBeatsSurviveCloseOldestFirst) {
  HeartbeatChannel ch(8);
  EXPECT_TRUE(ch.publish(beat(0)));
  EXPECT_TRUE(ch.publish(beat(1)));
  EXPECT_TRUE(ch.publish(beat(2)));
  ch.close();
  ASSERT_TRUE(ch.closed());
  for (std::uint64_t want = 0; want < 3; ++want) {
    auto hb = ch.take();
    ASSERT_TRUE(hb.has_value()) << "beats buffered at close must stay drainable";
    EXPECT_EQ(hb->seq, want) << "drain order is publish order";
  }
  EXPECT_FALSE(ch.take().has_value());
}

TEST(HeartbeatClose, PublishAfterCloseIsASilentNoOp) {
  HeartbeatChannel ch(8);
  ch.publish(beat(0));
  ch.close();
  const std::size_t published = ch.beats_published();
  const std::size_t evicted = ch.beats_evicted();
  EXPECT_FALSE(ch.publish(beat(1))) << "publish-after-close reports failure";
  EXPECT_EQ(ch.beats_published(), published) << "nothing counted";
  EXPECT_EQ(ch.beats_evicted(), evicted)
      << "a dying shard's late beat must not masquerade as an eviction";
  auto hb = ch.take();
  ASSERT_TRUE(hb.has_value());
  EXPECT_EQ(hb->seq, 0u) << "only the pre-close beat is buffered";
  EXPECT_FALSE(ch.take().has_value());
}

TEST(HeartbeatClose, DrainLatestAfterCloseSeesTheFinalBeat) {
  HeartbeatChannel ch(8);
  for (std::uint64_t s = 0; s < 5; ++s) ch.publish(beat(s));
  ch.close();
  auto latest = ch.drain_latest();
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->seq, 4u) << "the controller's last look gets the freshest beat";
  EXPECT_FALSE(ch.drain_latest().has_value());
}

TEST(HeartbeatClose, EvictionBeforeCloseStillCounts) {
  HeartbeatChannel ch(2);
  EXPECT_TRUE(ch.publish(beat(0)));
  EXPECT_TRUE(ch.publish(beat(1)));
  EXPECT_FALSE(ch.publish(beat(2))) << "a full channel evicts the oldest";
  EXPECT_EQ(ch.beats_evicted(), 1u);
  ch.close();
  auto hb = ch.take();
  ASSERT_TRUE(hb.has_value());
  EXPECT_EQ(hb->seq, 1u) << "seq 0 was the eviction victim";
}

}  // namespace
}  // namespace safecross::runtime
