// In-memory spans of the traced run, written out as a Chrome trace
// (chrome://tracing / Perfetto "X" events) when the run ends.  Spans of one
// request share its id in args.id; a request span is the parent, its stage
// and scheme-call spans are children on the same lane.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  std::string layer;        ///< net, cluster, serving, core, ...
  std::uint64_t id = 0;     ///< request id shared by parent and children
  std::int64_t start_ns = 0;
  std::int64_t dur_ns = 0;
  std::uint32_t lane = 0;   ///< Chrome tid
};

class SpanLog {
 public:
  /// Spans kept; later ones are dropped.
  static constexpr std::size_t kMaxSpans = 200000;

  void Add(Span span);
  const std::vector<Span>& Spans() const { return spans_; }

  /// Writes every span as a Chrome trace; returns false on I/O failure.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

}  // namespace perfbench
