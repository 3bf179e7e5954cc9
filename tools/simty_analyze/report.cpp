// JSON rendering of an analysis Result (uploaded as a CI artifact).

#include <string>

#include "analyze.hpp"

namespace simty::analyze {

namespace {

std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

std::string to_json(const Result& result) {
  std::string out = "{\n";
  out += "  \"files\": " + std::to_string(result.files) + ",\n";
  out += "  \"functions\": " + std::to_string(result.functions) + ",\n";
  out += "  \"call_edges\": " + std::to_string(result.call_edges) + ",\n";
  out += "  \"include_edges\": " + std::to_string(result.include_edges) + ",\n";
  out += "  \"findings\": [";
  for (std::size_t i = 0; i < result.findings.size(); ++i) {
    const Finding& f = result.findings[i];
    out += i ? ",\n    {" : "\n    {";
    out += "\"check\": \"" + escape(f.check) + "\", ";
    out += "\"file\": \"" + escape(f.file) + "\", ";
    out += "\"line\": " + std::to_string(f.line) + ", ";
    out += "\"message\": \"" + escape(f.message) + "\", ";
    out += "\"chain\": [";
    for (std::size_t c = 0; c < f.chain.size(); ++c) {
      if (c) out += ", ";
      out += '"';
      out += escape(f.chain[c]);
      out += '"';
    }
    out += "]}";
  }
  out += result.findings.empty() ? "],\n" : "\n  ],\n";
  out += "  \"advisories\": [";
  for (std::size_t i = 0; i < result.advisories.size(); ++i) {
    const Advisory& a = result.advisories[i];
    out += i ? ",\n    {" : "\n    {";
    out += "\"check\": \"" + escape(a.check) + "\", ";
    out += "\"file\": \"" + escape(a.file) + "\", ";
    out += "\"line\": " + std::to_string(a.line) + ", ";
    out += "\"message\": \"" + escape(a.message) + "\"}";
  }
  out += result.advisories.empty() ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

}  // namespace simty::analyze
