#include "common/table.hpp"

#include <algorithm>

namespace simty {

TextTable::TextTable(std::string title) : title_(std::move(title)) {}

void TextTable::set_header(std::vector<std::string> header) {
  header_ = std::move(header);
}

void TextTable::add_row(std::vector<std::string> row) {
  rows_.push_back(Row{std::move(row), false});
}

void TextTable::add_separator() { rows_.push_back(Row{{}, true}); }

std::string TextTable::render() const {
  // Column widths across header and all rows.
  std::vector<std::size_t> widths;
  auto widen = [&widths](const std::vector<std::string>& cells) {
    if (cells.size() > widths.size()) widths.resize(cells.size(), 0);
    for (std::size_t i = 0; i < cells.size(); ++i) {
      widths[i] = std::max(widths[i], cells[i].size());
    }
  };
  widen(header_);
  for (const Row& r : rows_) {
    if (!r.separator) widen(r.cells);
  }

  auto render_line = [&widths](const std::vector<std::string>& cells) {
    std::string line = "|";
    for (std::size_t i = 0; i < widths.size(); ++i) {
      const std::string& cell = i < cells.size() ? cells[i] : std::string{};
      line += " " + cell + std::string(widths[i] - cell.size(), ' ') + " |";
    }
    return line + "\n";
  };
  auto rule = [&widths]() {
    std::string line = "+";
    for (const std::size_t w : widths) line += std::string(w + 2, '-') + "+";
    return line + "\n";
  };

  std::string out;
  if (!title_.empty()) out += title_ + "\n";
  out += rule();
  if (!header_.empty()) {
    out += render_line(header_);
    out += rule();
  }
  for (const Row& r : rows_) {
    out += r.separator ? rule() : render_line(r.cells);
  }
  out += rule();
  return out;
}

CsvWriter::CsvWriter(std::vector<std::string> header) : header_(std::move(header)) {}

void CsvWriter::add_row(std::vector<std::string> row) {
  rows_.push_back(std::move(row));
}

namespace {
std::string csv_escape(const std::string& field) {
  const bool needs_quote =
      field.find_first_of(",\"\n\r") != std::string::npos;
  if (!needs_quote) return field;
  std::string out = "\"";
  for (const char c : field) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += '"';
  return out;
}

std::string csv_line(const std::vector<std::string>& fields) {
  std::string out;
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i != 0) out += ',';
    out += csv_escape(fields[i]);
  }
  return out + "\n";
}
}  // namespace

std::string CsvWriter::to_string() const {
  std::string out = csv_line(header_);
  for (const auto& row : rows_) out += csv_line(row);
  return out;
}

}  // namespace simty
