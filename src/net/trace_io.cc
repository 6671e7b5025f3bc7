#include "net/trace_io.h"

#include <cmath>
#include <fstream>
#include <sstream>

#include "common/assert.h"
#include "common/metrics.h"
#include "common/stats.h"

namespace nomloc::net {

using common::Json;
using common::JsonArray;
using common::JsonObject;

namespace {

constexpr double kSchemaVersion = 1.0;

Json AnchorToJson(const localization::Anchor& anchor) {
  JsonObject obj;
  obj["x"] = Json(anchor.position.x);
  obj["y"] = Json(anchor.position.y);
  obj["pdp"] = Json(anchor.pdp);
  obj["nomadic"] = Json(anchor.is_nomadic_site);
  return Json(std::move(obj));
}

common::Result<localization::Anchor> AnchorFromJson(const Json& json) {
  localization::Anchor anchor;
  NOMLOC_ASSIGN_OR_RETURN(anchor.position.x, json.GetDouble("x"));
  NOMLOC_ASSIGN_OR_RETURN(anchor.position.y, json.GetDouble("y"));
  NOMLOC_ASSIGN_OR_RETURN(anchor.pdp, json.GetDouble("pdp"));
  NOMLOC_ASSIGN_OR_RETURN(anchor.is_nomadic_site, json.GetBool("nomadic"));
  // The JSON grammar cannot encode NaN/Inf, but TraceFromJson also
  // accepts hand-built DOMs — screen them like any untrusted capture.
  if (!std::isfinite(anchor.position.x) || !std::isfinite(anchor.position.y) ||
      !std::isfinite(anchor.pdp))
    return common::DataCorruption("non-finite recorded anchor value");
  if (anchor.pdp <= 0.0)
    return common::InvalidArgument("recorded PDP must be positive");
  return anchor;
}

}  // namespace

Json TraceToJson(const MeasurementTrace& trace) {
  JsonObject obj;
  obj["schema_version"] = Json(kSchemaVersion);
  obj["description"] = Json(trace.description);
  JsonArray epochs;
  for (const EpochRecord& epoch : trace.epochs) {
    JsonObject e;
    e["truth_x"] = Json(epoch.ground_truth.x);
    e["truth_y"] = Json(epoch.ground_truth.y);
    JsonArray anchors;
    for (const auto& anchor : epoch.anchors)
      anchors.push_back(AnchorToJson(anchor));
    e["anchors"] = Json(std::move(anchors));
    epochs.push_back(Json(std::move(e)));
  }
  obj["epochs"] = Json(std::move(epochs));
  return Json(std::move(obj));
}

common::Result<MeasurementTrace> TraceFromJson(const Json& json) {
  NOMLOC_ASSIGN_OR_RETURN(double version, json.GetDouble("schema_version"));
  if (version != kSchemaVersion)
    return common::InvalidArgument("unsupported trace schema version");
  MeasurementTrace trace;
  NOMLOC_ASSIGN_OR_RETURN(trace.description, json.GetString("description"));
  NOMLOC_ASSIGN_OR_RETURN(Json epochs, json.Get("epochs"));
  if (!epochs.is_array())
    return common::InvalidArgument("'epochs' must be an array");
  for (const Json& e : epochs.AsArray()) {
    EpochRecord record;
    NOMLOC_ASSIGN_OR_RETURN(record.ground_truth.x, e.GetDouble("truth_x"));
    NOMLOC_ASSIGN_OR_RETURN(record.ground_truth.y, e.GetDouble("truth_y"));
    NOMLOC_ASSIGN_OR_RETURN(Json anchors, e.Get("anchors"));
    if (!anchors.is_array())
      return common::InvalidArgument("'anchors' must be an array");
    for (const Json& a : anchors.AsArray()) {
      NOMLOC_ASSIGN_OR_RETURN(auto anchor, AnchorFromJson(a));
      record.anchors.push_back(anchor);
    }
    trace.epochs.push_back(std::move(record));
  }
  return trace;
}

common::Result<MeasurementTrace> ParseTrace(std::string_view text) {
  auto& registry = common::MetricRegistry::Global();
  static auto& parse_failures = registry.Counter("trace.parse_failures");
  auto json = Json::Parse(text);
  if (!json.ok()) {
    parse_failures.Increment();
    // Re-type the parser's error: a trace file that does not even parse
    // is corrupt capture data, not a caller mistake.  The parser's
    // message already names the byte offset ("… at offset N").
    return common::DataCorruption("corrupt trace: " +
                                  json.status().message());
  }
  auto trace = TraceFromJson(*json);
  if (!trace.ok()) parse_failures.Increment();
  return trace;
}

common::Result<MeasurementTrace> LoadTraceFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return common::NotFound("cannot open trace file " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad())
    return common::DataCorruption("I/O error reading trace file " + path);
  return ParseTrace(buffer.str());
}

common::Result<void> SaveTraceFile(const MeasurementTrace& trace,
                                   const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return common::NotFound("cannot write trace file " + path);
  out << TraceToJson(trace).DumpPretty() << "\n";
  out.flush();
  if (!out)
    return common::DataCorruption("I/O error writing trace file " + path);
  return {};
}

common::Result<ReplayResult> ReplayTrace(const MeasurementTrace& trace,
                                         const core::NomLocEngine& engine) {
  if (trace.epochs.empty())
    return common::InvalidArgument("trace has no epochs");
  ReplayResult result;
  result.errors_m.reserve(trace.epochs.size());
  for (const EpochRecord& epoch : trace.epochs) {
    core::LocateRequest request;
    request.anchors = epoch.anchors;
    NOMLOC_ASSIGN_OR_RETURN(core::LocateResponse response,
                            engine.Locate(request));
    result.errors_m.push_back(
        Distance(response.estimate.position, epoch.ground_truth));
  }
  result.mean_error_m = common::Mean(result.errors_m);
  return result;
}

}  // namespace nomloc::net
