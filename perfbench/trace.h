// Span recording for the traced run of the repo benchmark. Spans are taken
// around the benchmark's own calls into each module's public functions
// (nothing inside src/ is instrumented), kept in memory, and written out
// once at exit. A layer's self time is its span minus its child spans.
#ifndef SOBC_PERFBENCH_TRACE_H_
#define SOBC_PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "bc/bd_store.h"

namespace sobc::perfbench {

inline double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// In-memory span log shared by the generator and writer threads.
///
/// A span has a name, start, end and the id of the span that caused it
/// (0 for a root). `busy` is the time the span accounts for: end - start
/// for an ordinary span; for an aggregate span (one per engine call,
/// standing for the thousands of BD-store calls inside it, which are too
/// many to keep one by one) it is the summed duration of those calls.
class Tracer {
 public:
  using Id = std::uint32_t;

  struct Span {
    const char* name = "";
    Id parent = 0;
    double start = 0.0;
    double end = 0.0;
    double busy = 0.0;
    std::uint64_t calls = 1;
  };

  Id Begin(const char* name, Id parent) {
    const double now = NowSeconds();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, parent, now, now, 0.0, 1});
    return static_cast<Id>(spans_.size());
  }

  void End(Id id) {
    const double now = NowSeconds();
    std::lock_guard<std::mutex> lock(mu_);
    Span& span = spans_[id - 1];
    span.end = now;
    span.busy = now - span.start;
  }

  void AddAggregate(const char* name, Id parent, double start, double end,
                    double busy, std::uint64_t calls) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, parent, start, end, busy, calls});
  }

  /// Per span name: summed busy time and summed self time (busy minus the
  /// busy time of direct children). Call after every thread has finished.
  struct Totals {
    double busy = 0.0;
    double self = 0.0;
    std::uint64_t calls = 0;
  };
  std::map<std::string, Totals> Summarize() const {
    std::vector<double> child_busy(spans_.size() + 1, 0.0);
    for (const Span& span : spans_) child_busy[span.parent] += span.busy;
    std::map<std::string, Totals> totals;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      Totals& t = totals[spans_[i].name];
      t.busy += spans_[i].busy;
      t.self += spans_[i].busy - child_busy[i + 1];
      t.calls += spans_[i].calls;
    }
    return totals;
  }

  /// Busy time of every span called `name`, in recording order.
  std::vector<double> Durations(const std::string& name) const {
    std::vector<double> out;
    for (const Span& span : spans_) {
      if (name == span.name) out.push_back(span.busy);
    }
    return out;
  }

  /// Writes one tab-separated line per span (times relative to the first).
  bool Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const double origin = spans_.empty() ? 0.0 : spans_.front().start;
    std::fprintf(f, "id\tparent\tname\tstart_s\tend_s\tbusy_s\tcalls\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f, "%zu\t%u\t%s\t%.9f\t%.9f\t%.9f\t%llu\n", i + 1,
                   s.parent, s.name, s.start - origin, s.end - origin, s.busy,
                   static_cast<unsigned long long>(s.calls));
    }
    return std::fclose(f) == 0;
  }

 private:
  std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, Tracer::Id parent)
      : tracer_(tracer), id_(tracer->Begin(name, parent)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  Tracer::Id id() const { return id_; }

 private:
  Tracer* tracer_;
  Tracer::Id id_;
};

/// A BdStore decorator that times every call into the wrapped store. Reads
/// (View, ViewBatch, PeekDistances) and writes (Apply, PutInitial) are
/// summed separately; the driver drains the sums after each engine call
/// into one aggregate child span of that call.
class TimingBdStore : public BdStore {
 public:
  explicit TimingBdStore(BdStore* inner) : inner_(inner) {}

  struct Counters {
    double view_seconds = 0.0;
    double apply_seconds = 0.0;
    std::uint64_t calls = 0;
    double first_start = 0.0;
    double last_end = 0.0;
  };
  /// Returns the counters accumulated since the last call and resets them.
  Counters TakeCounters() {
    Counters out = counters_;
    counters_ = Counters{};
    return out;
  }

  std::size_t num_vertices() const override { return inner_->num_vertices(); }
  VertexId source_begin() const override { return inner_->source_begin(); }
  VertexId source_end() const override { return inner_->source_end(); }
  PredMode pred_mode() const override { return inner_->pred_mode(); }

  Status View(VertexId s, SourceView* view) override {
    const double t0 = NowSeconds();
    Status st = inner_->View(s, view);
    Count(t0, &counters_.view_seconds);
    return st;
  }
  Status ViewBatch(std::span<const VertexId> sources,
                   std::vector<SourceView>* views) override {
    const double t0 = NowSeconds();
    Status st = inner_->ViewBatch(sources, views);
    Count(t0, &counters_.view_seconds);
    return st;
  }
  Status PeekDistances(VertexId s, VertexId a, VertexId b, Distance* da,
                       Distance* db) override {
    const double t0 = NowSeconds();
    Status st = inner_->PeekDistances(s, a, b, da, db);
    Count(t0, &counters_.view_seconds);
    return st;
  }
  Status Apply(VertexId s, const std::vector<BdPatch>& patches,
               const PredPatchList& pred_patches) override {
    const double t0 = NowSeconds();
    Status st = inner_->Apply(s, patches, pred_patches);
    Count(t0, &counters_.apply_seconds);
    return st;
  }
  Status PutInitial(VertexId s, SourceBcData&& data) override {
    const double t0 = NowSeconds();
    Status st = inner_->PutInitial(s, std::move(data));
    Count(t0, &counters_.apply_seconds);
    return st;
  }
  Status Grow(std::size_t new_n) override { return inner_->Grow(new_n); }
  void Hint(std::span<const VertexId> sources) override {
    inner_->Hint(sources);
  }
  Status Flush() override { return inner_->Flush(); }

 private:
  void Count(double t0, double* bucket) {
    const double t1 = NowSeconds();
    if (counters_.calls == 0) counters_.first_start = t0;
    counters_.last_end = t1;
    *bucket += t1 - t0;
    ++counters_.calls;
  }

  BdStore* inner_;
  Counters counters_;
};

}  // namespace sobc::perfbench

#endif  // SOBC_PERFBENCH_TRACE_H_
