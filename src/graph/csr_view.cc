#include "graph/csr_view.h"

#include <algorithm>
#include <limits>

#include "common/logging.h"

namespace sobc {

namespace {

/// Slack reserved beyond the current degree at build/relocation time, so a
/// run of additions on the same vertex patches in place.
std::uint32_t SlackFor(std::size_t degree) {
  return static_cast<std::uint32_t>(std::max<std::size_t>(2, degree / 8));
}

/// Arenas smaller than this skip compaction entirely; the waste is noise.
constexpr std::size_t kMinCompactArena = 1024;

}  // namespace

void CsrView::Build(std::span<const std::vector<VertexId>> out,
                    std::span<const std::vector<VertexId>> in) {
  auto fill = [](Arena* a, std::span<const std::vector<VertexId>> lists) {
    const std::size_t n = lists.size();
    a->slots.assign(n, Slot{});
    a->cap.assign(n, 0);
    a->dead = 0;
    std::size_t total = 0;
    for (const auto& list : lists) {
      total += list.size() + SlackFor(list.size());
    }
    SOBC_CHECK(total <= std::numeric_limits<std::uint32_t>::max());
    a->arena.assign(total, kInvalidVertex);
    std::uint32_t cursor = 0;
    for (VertexId v = 0; v < n; ++v) {
      const auto& list = lists[v];
      Slot& s = a->slots[v];
      s.begin = cursor;
      s.count = static_cast<std::uint32_t>(list.size());
      a->cap[v] = s.count + SlackFor(list.size());
      std::copy(list.begin(), list.end(), a->arena.begin() + s.begin);
      cursor += a->cap[v];
    }
  };

  fill(&out_, out);
  if (directed_) {
    fill(&in_, in);
  } else {
    in_ = Arena{};
  }
  ++stats_.builds;
}

void CsrView::Relocate(Arena* a, VertexId u, std::uint32_t new_cap) {
  Slot& s = a->slots[u];
  const std::uint32_t old_begin = s.begin;
  a->dead += a->cap[u];
  // Slot offsets are 32-bit by design (half the footprint of size_t per
  // vertex); past 2^32 arena entries they would silently wrap and alias
  // other blocks, so make the limit loud instead.
  SOBC_CHECK(a->arena.size() + new_cap <=
             std::numeric_limits<std::uint32_t>::max());
  s.begin = static_cast<std::uint32_t>(a->arena.size());
  a->cap[u] = new_cap;
  a->arena.resize(a->arena.size() + new_cap, kInvalidVertex);
  std::copy(a->arena.begin() + old_begin,
            a->arena.begin() + old_begin + s.count,
            a->arena.begin() + s.begin);
  ++stats_.relocations;
}

void CsrView::MaybeCompact(Arena* a) {
  // Doubling keeps every vertex's abandoned blocks smaller than its live
  // one, so dead space stays below half the arena by construction; a third
  // (dead >= half the live blocks) is the reachable trigger.
  if (a->arena.size() < kMinCompactArena || a->dead * 3 < a->arena.size()) {
    return;
  }
  // A third of the arena is abandoned blocks: rewrite it front-to-back,
  // re-applying the standard slack. Amortized against the relocations that
  // created the garbage, so per-mutation cost stays O(degree).
  std::vector<VertexId> fresh;
  fresh.reserve(a->arena.size() - a->dead);
  for (std::size_t v = 0; v < a->slots.size(); ++v) {
    Slot& s = a->slots[v];
    const std::uint32_t begin = static_cast<std::uint32_t>(fresh.size());
    fresh.insert(fresh.end(), a->arena.begin() + s.begin,
                 a->arena.begin() + s.begin + s.count);
    s.begin = begin;
    a->cap[v] = s.count + SlackFor(s.count);
    fresh.resize(fresh.size() + (a->cap[v] - s.count), kInvalidVertex);
  }
  a->arena = std::move(fresh);
  a->dead = 0;
  ++stats_.compactions;
}

void CsrView::ArenaAdd(Arena* a, VertexId u, VertexId v) {
  if (a->slots[u].count == a->cap[u]) {
    // Double in 64-bit: cap * 2 in uint32 wraps to 0 at cap >= 2^31 and
    // would relocate into a 4-slot block. The clamp defers to Relocate's
    // arena-size check, which fires before any oversized copy.
    const std::uint64_t doubled =
        std::max<std::uint64_t>(4, std::uint64_t{a->cap[u]} * 2);
    Relocate(a, u,
             static_cast<std::uint32_t>(std::min<std::uint64_t>(
                 doubled, std::numeric_limits<std::uint32_t>::max())));
    MaybeCompact(a);
  }
  Slot& s = a->slots[u];
  a->arena[s.begin + s.count] = v;
  ++s.count;
}

bool CsrView::ArenaRemove(Arena* a, VertexId u, VertexId v) {
  Slot& s = a->slots[u];
  VertexId* block = a->arena.data() + s.begin;
  for (std::uint32_t i = 0; i < s.count; ++i) {
    if (block[i] == v) {
      block[i] = block[s.count - 1];
      --s.count;
      return true;
    }
  }
  return false;
}

void CsrView::Grow(std::size_t n) {
  if (n <= out_.slots.size()) return;
  // New vertices start with an empty zero-capacity block; their first
  // addition relocates to a fresh block at the arena tail.
  out_.slots.resize(n, Slot{});
  out_.cap.resize(n, 0);
  if (directed_) {
    in_.slots.resize(n, Slot{});
    in_.cap.resize(n, 0);
  }
}

void CsrView::AddEdge(VertexId u, VertexId v) {
  SOBC_DCHECK(u < out_.slots.size() && v < out_.slots.size());
  ArenaAdd(&out_, u, v);
  if (directed_) {
    ArenaAdd(&in_, v, u);
  } else {
    ArenaAdd(&out_, v, u);
  }
  ++stats_.patches;
}

bool CsrView::RemoveEdge(VertexId u, VertexId v) {
  SOBC_DCHECK(u < out_.slots.size() && v < out_.slots.size());
  if (!ArenaRemove(&out_, u, v)) return false;
  const bool reverse =
      directed_ ? ArenaRemove(&in_, v, u) : ArenaRemove(&out_, v, u);
  SOBC_DCHECK(reverse && "CsrView out of sync: edge lacks its reverse entry");
  (void)reverse;
  ++stats_.patches;
  return true;
}

}  // namespace sobc
