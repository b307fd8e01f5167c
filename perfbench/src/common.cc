#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

uint64_t ProcessCpuNs() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  auto ns = [](const timeval& tv) {
    return static_cast<uint64_t>(tv.tv_sec) * 1000000000ull +
           static_cast<uint64_t>(tv.tv_usec) * 1000ull;
  };
  return ns(ru.ru_utime) + ns(ru.ru_stime);
}

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double PercentileOf(std::vector<uint64_t>* samples, double p) {
  if (samples->empty()) return 0;
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * samples->size()));
  if (rank == 0) rank = 1;
  std::nth_element(samples->begin(), samples->begin() + (rank - 1),
                   samples->end());
  return static_cast<double>((*samples)[rank - 1]);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

const char* SpanName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kOp: return "op";
    case SpanKind::kCodec: return "protocol.codec";
    case SpanKind::kHandle: return "server.handle";
    case SpanKind::kTransportCall: return "transport.call";
    case SpanKind::kIrCall: return "relevance.ir_call";
    case SpanKind::kLtrCall: return "relevance.ltr_call";
    case SpanKind::kContained: return "containment.contained";
    case SpanKind::kRegister: return "stream.register";
    case SpanKind::kNumKinds: break;
  }
  return "?";
}

int32_t SpanLog::Open(SpanKind kind, uint8_t detail) {
  Span s;
  s.kind = kind;
  s.detail = detail;
  s.parent = open_.empty() ? -1 : open_.back();
  if (s.parent >= 0) s.request_id = spans_[s.parent].request_id;
  const int32_t index = static_cast<int32_t>(spans_.size());
  open_.push_back(index);
  s.start_ns = NowNs();
  spans_.push_back(s);
  return index;
}

void SpanLog::Close(int32_t index) {
  spans_[index].end_ns = NowNs();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

void SpanLog::SetRequestId(uint64_t id) {
  for (int32_t i : open_) {
    if (spans_[i].request_id == 0) spans_[i].request_id = id;
  }
}

void SpanStats::Add(const std::vector<Span>& spans) {
  for (const Span& s : spans) {
    const uint64_t d = s.end_ns - s.start_ns;
    durations_[static_cast<int>(s.kind)].push_back(d);
    auto& slot = by_detail_[{static_cast<int>(s.kind), s.detail}];
    slot.first += d;
    slot.second += 1;
    if (s.kind == SpanKind::kOp && s.parent < 0) root_ns_ += d;
    if (s.parent >= 0 && spans[s.parent].kind == SpanKind::kOp &&
        spans[s.parent].parent < 0) {
      child_ns_ += d;
    }
  }
}

double SpanStats::MeanUs(SpanKind kind) const {
  return Count(kind) == 0 ? 0 : SumUs(kind) / Count(kind);
}

double SpanStats::SumUs(SpanKind kind) const {
  double sum = 0;
  for (uint64_t v : durations_[static_cast<int>(kind)]) sum += v;
  return sum / 1e3;
}

double SpanStats::MeanUs(SpanKind kind, uint8_t detail) const {
  auto it = by_detail_.find({static_cast<int>(kind), detail});
  if (it == by_detail_.end() || it->second.second == 0) return 0;
  return static_cast<double>(it->second.first) / it->second.second / 1e3;
}

double SpanStats::Coverage() const {
  return root_ns_ == 0 ? 0.0
                       : static_cast<double>(child_ns_) / root_ns_;
}

bool WriteSpans(const std::string& path,
                const std::vector<std::vector<Span>>& per_thread) {
  if (path.empty()) return true;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "thread\tindex\tname\tdetail\trequest_id\tparent\tstart_ns"
                  "\tend_ns\n");
  for (size_t t = 0; t < per_thread.size(); ++t) {
    const std::vector<Span>& spans = per_thread[t];
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(f, "%zu\t%zu\t%s\t%u\t%llu\t%d\t%llu\t%llu\n", t, i,
                   SpanName(s.kind), static_cast<unsigned>(s.detail),
                   static_cast<unsigned long long>(s.request_id), s.parent,
                   static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.end_ns));
    }
  }
  return std::fclose(f) == 0;
}

void Metrics::Set(const std::string& name, double value,
                  const std::string& unit) {
  if (!std::isfinite(value)) value = 0;
  for (auto& item : items_) {
    if (item.first == name) {
      item.second = {value, unit};
      return;
    }
  }
  items_.push_back({name, {value, unit}});
}

std::string Metrics::ToJson() const {
  std::string out = "{";
  char buf[64];
  for (size_t i = 0; i < items_.size(); ++i) {
    if (i > 0) out += ", ";
    std::snprintf(buf, sizeof(buf), "%.17g", items_[i].second.first);
    out += "\"" + items_[i].first + "\": {\"value\": " + buf +
           ", \"unit\": \"" + items_[i].second.second + "\"}";
  }
  return out + "}";
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const Metrics& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              metrics.ToJson().c_str());
  std::fflush(stdout);
}

void PhaseTotals::AddEpoch(bool traced, uint64_t wall, uint64_t cpu,
                           std::vector<uint64_t> op_ns) {
  const uint64_t n = op_ns.size();
  ops += n;
  (traced ? traced_wall_ns : untraced_wall_ns) += wall;
  (traced ? traced_ops : untraced_ops) += n;
  if (n == 0 || wall == 0) return;
  ops_per_s.push_back(n / (wall / 1e9));
  op_p50_us.push_back(PercentileOf(&op_ns, 50) / 1e3);
  op_p90_us.push_back(PercentileOf(&op_ns, 90) / 1e3);
  cpu_us_per_op.push_back(cpu / 1e3 / n);
}

void PhaseTotals::FillEndToEnd(Metrics* m) const {
  m->Set("setup_s", Median(setup_s), "s");
  m->Set("ops_per_s", Median(ops_per_s), "ops/s");
  m->Set("op_p50_us", Median(op_p50_us), "us");
  m->Set("op_p90_us", Median(op_p90_us), "us");
  m->Set("cpu_us_per_op", Median(cpu_us_per_op), "us");
  m->Set("peak_rss_mb", PeakRssMb(), "MB");
}

double PhaseTotals::TraceOverheadPct() const {
  if (traced_wall_ns == 0 || untraced_wall_ns == 0) return 0;
  const double traced = traced_ops / (traced_wall_ns / 1e9);
  const double untraced = untraced_ops / (untraced_wall_ns / 1e9);
  return (untraced - traced) / untraced * 100.0;
}

}  // namespace perfbench
