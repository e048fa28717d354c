// StateCodec property tests: the codec's collapse encoding (see
// ta/codec.hpp) must be exact — every reachable state encodes and
// decodes back to itself. The states come from a BFS prefix of a real
// protocol model so the sampled vectors exercise genuine slot ranges,
// not synthetic ones.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "mc/store.hpp"
#include "models/heartbeat_model.hpp"
#include "ta/codec.hpp"
#include "successors.hpp"

namespace ahb {
namespace {

using models::BuildOptions;
using models::Flavor;
using models::HeartbeatModel;

HeartbeatModel build_model(Flavor flavor, int participants, int tmin,
                           int tmax) {
  BuildOptions options;
  options.timing = {tmin, tmax};
  options.participants = participants;
  return HeartbeatModel::build(flavor, options);
}

/// Collects the first `limit` distinct reachable states in BFS order —
/// a deterministic sample that sweeps the genuine slot ranges (early
/// layers pin the narrow values, later layers the decayed clocks and
/// waiting times).
std::vector<ta::State> sample_reachable(const ta::Network& net,
                                        std::size_t limit) {
  std::set<std::vector<ta::Slot>> seen;
  std::vector<ta::State> states;
  std::size_t next = 0;
  states.push_back(net.initial_state());
  seen.insert({states[0].slots().begin(), states[0].slots().end()});
  while (next < states.size() && states.size() < limit) {
    const ta::State state = states[next++];
    for (auto& t : test::successors(net, state)) {
      if (states.size() >= limit) break;
      if (seen.insert({t.target.slots().begin(), t.target.slots().end()})
              .second) {
        states.push_back(std::move(t.target));
      }
    }
  }
  return states;
}

TEST(StateCodec, CollapseRootRoundTripsViaComponents) {
  // Every slot is a component member or a residue slot of the root, so
  // decoding each component key and the root rebuilds the whole state —
  // which also checks that every reachable value lies in its declared
  // range (an out-of-range value would not survive its bit-field).
  for (const auto flavor :
       {Flavor::Binary, Flavor::TwoPhase, Flavor::Static, Flavor::Dynamic}) {
    const auto model = build_model(flavor, 2, 4, 10);
    const auto& codec = model.net().codec();
    const auto states = sample_reachable(model.net(), 3000);
    ASSERT_GT(states.size(), 100u);
    ASSERT_GT(codec.component_count(), 0u);
    const std::vector<std::uint32_t> indices(codec.component_count(), 0);
    std::vector<std::uint32_t> decoded_indices(codec.component_count());
    std::vector<std::byte> root(codec.root_bytes());
    for (const auto& s : states) {
      ta::State decoded{codec.slot_count()};
      for (std::size_t c = 0; c < codec.component_count(); ++c) {
        const auto& comp = codec.component(c);
        // Never empty, so constant components pack into a real buffer.
        std::vector<std::byte> key(std::max<std::size_t>(comp.key_bytes, 1));
        codec.pack_component(c, s.slots(), key.data());
        codec.unpack_component(c, key.data(), decoded.slots_mut());
      }
      codec.pack_root(indices, s.slots(), root.data());
      codec.unpack_root(root.data(), decoded_indices, decoded.slots_mut());
      ASSERT_EQ(decoded, s);
    }
  }
}

TEST(StateCodec, CompressedStoresRoundTripAndAgreeOnIdentity) {
  // The store-level property behind count invariance: for any sampled
  // state multiset, both store encodings intern to the same set of
  // indices (same order, same novelty) and decode back to the original.
  for (const auto flavor : {Flavor::RevisedBinary, Flavor::Dynamic}) {
    const auto model = build_model(flavor, 2, 4, 10);
    const auto& codec = model.net().codec();
    const auto states = sample_reachable(model.net(), 3000);
    mc::StateStore none{codec, ta::Compression::None};
    mc::StateStore collapse{codec, ta::Compression::Collapse};
    for (const auto& s : states) {
      const auto [ni, nfresh] = none.intern(s);
      const auto [ci, cfresh] = collapse.intern(s);
      ASSERT_EQ(ni, ci);
      ASSERT_EQ(nfresh, cfresh);
    }
    ASSERT_EQ(none.size(), collapse.size());
    const std::size_t interned = collapse.size();
    ta::State out{codec.slot_count()};
    for (std::uint32_t i = 0; i < none.size(); ++i) {
      collapse.load(i, out);
      ASSERT_EQ(out, none.get(i));
      ASSERT_EQ(collapse.intern(out), std::make_pair(i, false));
    }
    ASSERT_EQ(collapse.size(), interned);
  }
}

TEST(StateCodec, WidthsComeFromDeclaredRanges) {
  // A hand-built network with annotated ranges: constant slots take no
  // bits, narrow ranges take their exact width, and negative minima
  // rebase.
  ta::Network net;
  const auto a = net.add_automaton("a");
  const auto l0 = net.add_location(a, "only");
  net.set_initial(a, l0);
  net.add_var("flag", 0, 0, 1);
  net.add_var("constant", 3, 3, 3);
  net.add_var("signed_range", 0, -3, 4, a);
  net.add_clock("clk", 5);
  net.add_edge(a, ta::Edge{.src = l0, .dst = l0, .label = "spin"});
  net.freeze();
  const auto& codec = net.codec();
  ASSERT_EQ(codec.slot_count(), 5u);
  EXPECT_EQ(codec.field(0).width, 0);  // single location
  EXPECT_EQ(codec.field(1).width, 1);  // flag in [0,1]
  EXPECT_EQ(codec.field(2).width, 0);  // constant
  EXPECT_EQ(codec.field(3).width, 3);  // [-3,4]: 8 values
  EXPECT_EQ(codec.field(3).base, -3);
  EXPECT_EQ(codec.field(4).width, 3);  // clock capped at 5: 6 values
  // The root holds flag, clk and a's component index (8 tuples: 3 bits):
  // 1 + 3 + 3 bits = 7 bits -> one byte.
  EXPECT_EQ(codec.root_bytes(), 1u);
  // The negative minimum rebases and decodes back to -3.
  ta::State s = net.initial_state();
  s.slots_mut()[3] = -3;
  std::byte key{};
  codec.pack_component(0, s.slots(), &key);
  ta::State decoded{codec.slot_count()};
  codec.unpack_component(0, &key, decoded.slots_mut());
  EXPECT_EQ(decoded.slots()[3], -3);
}

TEST(StateCodecDeathTest, PackersAbortOnValuesAboveTheirRange) {
  // A [0,1] variable set to 2 fits no 1-bit field: every collapse
  // packer aborts rather than intern bits that decode to another value.
  ta::Network net;
  const auto a = net.add_automaton("a");
  const auto l0 = net.add_location(a, "only");
  net.set_initial(a, l0);
  net.add_var("shared", 0, 0, 1);
  net.add_var("owned", 0, 0, 1, a);
  net.add_edge(a, ta::Edge{.src = l0, .dst = l0, .label = "spin"});
  net.freeze();
  const auto& codec = net.codec();
  ASSERT_EQ(codec.residue_slots(), (std::vector<std::uint32_t>{1}));
  ASSERT_EQ(codec.component(0).slots, (std::vector<std::uint32_t>{0, 2}));
  ASSERT_EQ(codec.field(1).width, 1);
  ASSERT_EQ(codec.field(2).width, 1);
  ta::State shared_high = net.initial_state();
  shared_high.slots_mut()[1] = 2;
  ta::State owned_high = net.initial_state();
  owned_high.slots_mut()[2] = 2;
  const std::uint32_t indices[1] = {0};
  std::byte out[8]{};
  EXPECT_DEATH(codec.pack_component(0, owned_high.slots(), out), "assertion");
  EXPECT_DEATH((void)codec.pack_component_key(0, owned_high.slots()),
               "assertion");
  EXPECT_DEATH(codec.pack_root(indices, shared_high.slots(), out),
               "assertion");
  EXPECT_DEATH((void)codec.pack_root_key(indices, shared_high.slots()),
               "assertion");
}

}  // namespace
}  // namespace ahb
