#pragma once
// ASCII table renderer for paper-style report output.
//
// Every bench binary prints the same rows the paper's tables/figures report;
// this renderer keeps that output aligned and diff-friendly.

#include <string>
#include <vector>

namespace simty {

/// Column-aligned ASCII table with an optional title and header row.
class TextTable {
 public:
  explicit TextTable(std::string title = "");

  /// Sets the header row (cleared rows are unaffected).
  void set_header(std::vector<std::string> header);

  /// Appends a data row; rows may have differing cell counts.
  void add_row(std::vector<std::string> row);

  /// Appends a horizontal separator between the rows added before/after.
  void add_separator();

  /// Renders with single-space padding and `|` column separators.
  std::string render() const;

 private:
  struct Row {
    std::vector<std::string> cells;
    bool separator = false;
  };
  std::string title_;
  std::vector<std::string> header_;
  std::vector<Row> rows_;
};

/// CSV writer with RFC-4180 quoting, buffering rows in memory until save().
class CsvWriter {
 public:
  explicit CsvWriter(std::vector<std::string> header);

  void add_row(std::vector<std::string> row);

  /// Serializes header + rows; fields containing `,`, `"` or newlines are
  /// quoted and embedded quotes doubled.
  std::string to_string() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace simty
