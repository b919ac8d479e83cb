#include "common/lloc.h"

#include <cctype>
#include <fstream>
#include <sstream>

namespace flash {

namespace {

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/// True if the quote at src[pos] is a C++14 digit separator (`10'000`,
/// `0x46'4B`): it sits inside a digit-led pp-number and a hex digit follows.
bool IsDigitSeparator(std::string_view src, size_t pos) {
  if (pos + 1 >= src.size() ||
      !std::isxdigit(static_cast<unsigned char>(src[pos + 1]))) {
    return false;
  }
  size_t start = pos;
  while (start > 0 && (IsIdentChar(src[start - 1]) || src[start - 1] == '.' ||
                       src[start - 1] == '\'')) {
    --start;
  }
  return start < pos && std::isdigit(static_cast<unsigned char>(src[start]));
}

/// Replaces comments and string/char literal bodies with spaces so that the
/// token scan below cannot be confused by ';' or keywords inside them.
/// Newlines inside comments are preserved for physical-line accounting.
std::string StripCommentsAndLiterals(std::string_view src) {
  std::string out;
  out.reserve(src.size());
  enum class State { kCode, kLineComment, kBlockComment, kString, kChar };
  State state = State::kCode;
  for (size_t i = 0; i < src.size(); ++i) {
    char c = src[i];
    char next = (i + 1 < src.size()) ? src[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          ++i;
        } else if (c == '"') {
          state = State::kString;
          out.push_back('"');
        } else if (c == '\'' && !IsDigitSeparator(src, i)) {
          state = State::kChar;
          out.push_back('\'');
        } else {
          out.push_back(c);
        }
        break;
      case State::kLineComment:
        if (c == '\n') {
          state = State::kCode;
          out.push_back('\n');
        }
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          state = State::kCode;
          ++i;
        } else if (c == '\n') {
          out.push_back('\n');
        }
        break;
      case State::kString:
        if (c == '\\') {
          ++i;  // Skip escaped char.
        } else if (c == '"') {
          state = State::kCode;
          out.push_back('"');
        } else if (c == '\n') {
          out.push_back('\n');
        }
        break;
      case State::kChar:
        if (c == '\\') {
          ++i;
        } else if (c == '\'') {
          state = State::kCode;
          out.push_back('\'');
        }
        break;
    }
  }
  return out;
}

/// True if src[pos..] starts the given keyword as a whole identifier.
bool MatchKeyword(const std::string& src, size_t pos, std::string_view kw) {
  if (src.compare(pos, kw.size(), kw) != 0) return false;
  if (pos > 0 && IsIdentChar(src[pos - 1])) return false;
  size_t end = pos + kw.size();
  return end >= src.size() || !IsIdentChar(src[end]);
}

}  // namespace

LlocResult CountLloc(std::string_view source) {
  LlocResult result;
  std::string code = StripCommentsAndLiterals(source);

  // Physical / total line counts.
  {
    std::istringstream raw{std::string(source)};
    std::string line;
    std::istringstream stripped{code};
    std::string stripped_line;
    while (std::getline(raw, line)) {
      ++result.total_lines;
    }
    while (std::getline(stripped, stripped_line)) {
      bool blank = true;
      for (char c : stripped_line) {
        if (!std::isspace(static_cast<unsigned char>(c))) {
          blank = false;
          break;
        }
      }
      if (!blank) ++result.physical_lines;
    }
  }

  // Logical lines: scan for statement terminators and control keywords.
  static constexpr std::string_view kControlKeywords[] = {
      "if", "else", "for", "while", "do", "switch", "case", "default"};

  int for_paren_depth = -1;  // Paren depth at which an active for(...) opened.
  int paren_depth = 0;
  for (size_t i = 0; i < code.size(); ++i) {
    char c = code[i];
    if (c == '(') {
      ++paren_depth;
    } else if (c == ')') {
      --paren_depth;
      if (for_paren_depth >= 0 && paren_depth <= for_paren_depth) {
        for_paren_depth = -1;  // for(...) header ended.
      }
    } else if (c == ';') {
      // The two ';' inside a for header belong to the for's logical line.
      if (for_paren_depth < 0) ++result.logical_lines;
    } else if (IsIdentChar(c) && (i == 0 || !IsIdentChar(code[i - 1]))) {
      for (std::string_view kw : kControlKeywords) {
        if (MatchKeyword(code, i, kw)) {
          // "else if" counts once: skip bare "else" directly followed by if.
          if (kw == "else") {
            size_t j = i + 4;
            while (j < code.size() &&
                   std::isspace(static_cast<unsigned char>(code[j]))) {
              ++j;
            }
            if (MatchKeyword(code, j, "if")) break;  // Count at the 'if'.
          }
          ++result.logical_lines;
          if (kw == "for") for_paren_depth = paren_depth;
          i += kw.size() - 1;
          break;
        }
      }
    }
  }
  return result;
}

LlocResult CountLlocMarkedRegion(std::string_view source) {
  static constexpr std::string_view kBegin = "// LLOC-BEGIN";
  static constexpr std::string_view kEnd = "// LLOC-END";
  size_t begin = source.find(kBegin);
  size_t end = source.find(kEnd);
  if (begin == std::string_view::npos || end == std::string_view::npos ||
      end <= begin) {
    return CountLloc(source);
  }
  begin += kBegin.size();
  return CountLloc(source.substr(begin, end - begin));
}

std::vector<LlocResult> CountLlocMarkedRegions(std::string_view source) {
  static constexpr std::string_view kBegin = "// LLOC-BEGIN";
  static constexpr std::string_view kEnd = "// LLOC-END";
  std::vector<LlocResult> regions;
  size_t pos = 0;
  while (true) {
    size_t begin = source.find(kBegin, pos);
    if (begin == std::string_view::npos) break;
    begin += kBegin.size();
    size_t end = source.find(kEnd, begin);
    if (end == std::string_view::npos) break;
    regions.push_back(CountLloc(source.substr(begin, end - begin)));
    pos = end + kEnd.size();
  }
  return regions;
}

namespace {
Result<std::string> ReadFileToString(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IOError("cannot open " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}
}  // namespace

Result<std::vector<LlocResult>> CountLlocFileRegions(const std::string& path) {
  FLASH_ASSIGN_OR_RETURN(std::string source, ReadFileToString(path));
  return CountLlocMarkedRegions(source);
}

Result<LlocResult> CountLlocFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IOError("cannot open " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return CountLlocMarkedRegion(buffer.str());
}

}  // namespace flash
