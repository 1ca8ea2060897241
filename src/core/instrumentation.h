#ifndef CLUSTAGG_CORE_INSTRUMENTATION_H_
#define CLUSTAGG_CORE_INSTRUMENTATION_H_

#include <cstdint>
#include <string_view>

#include "common/telemetry.h"

/// Call-site layer of the telemetry system. Library code never touches
/// Telemetry directly; it calls the helpers below with the Telemetry*
/// carried by the current RunContext. That pointer is null unless the
/// caller attached a sink (the RunContext default), and a null sink is
/// the only way to turn recording off: every helper then costs one
/// pointer test, and InstrumentedSpan / InstrumentedTimer neither read
/// the clock nor touch a registry.

namespace clustagg {

inline void TelemetryCount(Telemetry* telemetry, std::string_view name,
                           std::uint64_t delta = 1) {
  if (telemetry != nullptr) telemetry->counter(name)->Add(delta);
}

inline void TelemetrySetGauge(Telemetry* telemetry, std::string_view name,
                              std::int64_t value) {
  if (telemetry != nullptr) telemetry->gauge(name)->Set(value);
}

inline void TelemetryObserve(Telemetry* telemetry, std::string_view name,
                             std::uint64_t value) {
  if (telemetry != nullptr) telemetry->histogram(name)->Observe(value);
}

inline void TelemetryTracePoint(Telemetry* telemetry, std::string_view name,
                                std::uint64_t step, double value,
                                std::uint64_t aux = 0) {
  if (telemetry != nullptr) telemetry->trace(name)->Record(step, value, aux);
}

/// Non-RAII span pair for phases that are not block-structured (early
/// returns between phases): Telemetry::EndSpan closes any still-open
/// children, so a skipped end is healed by the enclosing span's end.
inline std::size_t TelemetryBeginSpan(Telemetry* telemetry,
                                      std::string_view name) {
  return telemetry != nullptr ? telemetry->BeginSpan(name) : 0;
}
inline void TelemetryEndSpan(Telemetry* telemetry, std::size_t id) {
  if (telemetry != nullptr) telemetry->EndSpan(id);
}

/// RAII phase span; no-op on a null telemetry.
class InstrumentedSpan {
 public:
  InstrumentedSpan(Telemetry* telemetry, std::string_view name)
      : telemetry_(telemetry),
        id_(telemetry != nullptr ? telemetry->BeginSpan(name) : 0) {}
  ~InstrumentedSpan() {
    if (telemetry_ != nullptr) telemetry_->EndSpan(id_);
  }
  InstrumentedSpan(const InstrumentedSpan&) = delete;
  InstrumentedSpan& operator=(const InstrumentedSpan&) = delete;

 private:
  Telemetry* telemetry_;
  std::size_t id_;
};

/// Measures the elapsed nanoseconds between construction and
/// destruction and records them into the named latency histogram.
class InstrumentedTimer {
 public:
  InstrumentedTimer(Telemetry* telemetry, std::string_view name)
      : telemetry_(telemetry),
        name_(name),
        start_(telemetry != nullptr ? telemetry->clock().NowNanos() : 0) {}
  ~InstrumentedTimer() {
    if (telemetry_ != nullptr) {
      telemetry_->histogram(name_)->Observe(telemetry_->clock().NowNanos() -
                                            start_);
    }
  }
  InstrumentedTimer(const InstrumentedTimer&) = delete;
  InstrumentedTimer& operator=(const InstrumentedTimer&) = delete;

 private:
  Telemetry* telemetry_;
  std::string_view name_;
  std::uint64_t start_;
};

}  // namespace clustagg

#endif  // CLUSTAGG_CORE_INSTRUMENTATION_H_
