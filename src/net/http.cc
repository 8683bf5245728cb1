#include "src/net/http.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <limits>

namespace tsdm {

namespace {

const std::string kEmpty;

std::string ToLower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return s;
}

std::string Trim(const std::string& s) {
  size_t b = s.find_first_not_of(" \t");
  if (b == std::string::npos) return "";
  size_t e = s.find_last_not_of(" \t");
  return s.substr(b, e - b + 1);
}

/// Offset of the value after `"key":` (blanks skipped) in a flat JSON
/// object, or npos when the key or its value is absent.
size_t JsonValueStart(const std::string& json, const std::string& key) {
  const std::string quoted = "\"" + key + "\"";
  size_t pos = json.find(quoted);
  if (pos == std::string::npos) return pos;
  pos = json.find_first_not_of(" \t", pos + quoted.size());
  if (pos == std::string::npos || json[pos] != ':') return std::string::npos;
  return json.find_first_not_of(" \t", pos + 1);
}

/// Reads an optional integer field into *out, which keeps its value when
/// the key is absent. A number that is not integral or not in range for T
/// is InvalidArgument, so the cast from the parsed double stays defined.
template <typename T>
Status ExtractJsonInteger(const std::string& json, const char* key, T* out) {
  double v = 0;
  if (!ExtractJsonNumber(json, key, &v)) return Status::OK();
  // Both bounds are exact doubles: [-2^31, 2^31) for int, [0, 2^64) for
  // uint64_t. NaN fails the first comparison.
  const double lo = static_cast<double>(std::numeric_limits<T>::min());
  const double hi = static_cast<double>(std::numeric_limits<T>::max()) + 1.0;
  if (!(v >= lo && v < hi) || v != std::trunc(v)) {
    return Status::InvalidArgument(std::string("net: \"") + key +
                                   "\" must be an integer in range");
  }
  *out = static_cast<T>(v);
  return Status::OK();
}

bool TokenValid(const std::string& s) {
  if (s.empty()) return false;
  for (char c : s) {
    if (c <= ' ' || c == 0x7f) return false;
  }
  return true;
}

}  // namespace

const std::string& HttpRequest::Header(const std::string& name) const {
  for (const auto& [k, v] : headers) {
    if (k == name) return v;
  }
  return kEmpty;
}

void HttpParser::Feed(const uint8_t* data, size_t size) {
  buffer_.append(reinterpret_cast<const char*>(data), size);
}

HttpParser::Result HttpParser::Next(HttpRequest* out) {
  if (error_ != Result::kNeedMore) return error_;

  // Request line + header block end at the first blank line. Tolerate bare
  // LF line endings alongside CRLF (curl always sends CRLF; tests may not).
  const size_t head_end = buffer_.find("\r\n\r\n");
  const size_t head_end_lf = buffer_.find("\n\n");
  size_t head_len, sep_len;
  if (head_end != std::string::npos &&
      (head_end_lf == std::string::npos || head_end < head_end_lf)) {
    head_len = head_end;
    sep_len = 4;
  } else if (head_end_lf != std::string::npos) {
    head_len = head_end_lf;
    sep_len = 2;
  } else {
    // Incomplete head: enforce the limits on what is buffered so an
    // unbounded request line / header flood fails early, not at OOM.
    const size_t line_end = buffer_.find('\n');
    if (line_end == std::string::npos &&
        buffer_.size() > limits_.max_request_line) {
      return error_ = Result::kTooLarge;
    }
    if (buffer_.size() > limits_.max_request_line + limits_.max_header_bytes) {
      return error_ = Result::kTooLarge;
    }
    return Result::kNeedMore;
  }

  // Split the head into lines.
  std::vector<std::string> lines;
  size_t pos = 0;
  while (pos <= head_len) {
    size_t eol = buffer_.find('\n', pos);
    if (eol == std::string::npos || eol > head_len) eol = head_len;
    std::string line = buffer_.substr(pos, eol - pos);
    if (!line.empty() && line.back() == '\r') line.pop_back();
    lines.push_back(std::move(line));
    pos = eol + 1;
  }
  if (lines.empty() || lines[0].empty()) return error_ = Result::kBadRequest;
  if (lines[0].size() > limits_.max_request_line) {
    return error_ = Result::kTooLarge;
  }
  if (head_len > limits_.max_request_line + limits_.max_header_bytes) {
    return error_ = Result::kTooLarge;
  }

  // Request line: METHOD SP TARGET SP VERSION.
  HttpRequest req;
  {
    const std::string& line = lines[0];
    const size_t sp1 = line.find(' ');
    const size_t sp2 = line.rfind(' ');
    if (sp1 == std::string::npos || sp2 == sp1) {
      return error_ = Result::kBadRequest;
    }
    req.method = line.substr(0, sp1);
    req.target = line.substr(sp1 + 1, sp2 - sp1 - 1);
    req.version = line.substr(sp2 + 1);
    if (!TokenValid(req.method) || !TokenValid(req.target) ||
        req.version.rfind("HTTP/", 0) != 0) {
      return error_ = Result::kBadRequest;
    }
  }

  // Headers: NAME ":" VALUE, names lowercased.
  size_t content_length = 0;
  for (size_t i = 1; i < lines.size(); ++i) {
    if (lines[i].empty()) continue;
    const size_t colon = lines[i].find(':');
    if (colon == std::string::npos || colon == 0) {
      return error_ = Result::kBadRequest;
    }
    std::string name = ToLower(Trim(lines[i].substr(0, colon)));
    std::string value = Trim(lines[i].substr(colon + 1));
    if (name == "content-length") {
      char* end = nullptr;
      unsigned long long v = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') {
        return error_ = Result::kBadRequest;
      }
      if (v > limits_.max_body_bytes) return error_ = Result::kTooLarge;
      content_length = static_cast<size_t>(v);
    }
    req.headers.emplace_back(std::move(name), std::move(value));
  }

  const size_t body_start = head_len + sep_len;
  if (buffer_.size() - body_start < content_length) return Result::kNeedMore;
  req.body = buffer_.substr(body_start, content_length);

  // Consume this request; leftover bytes are the next pipelined request.
  buffer_.erase(0, body_start + content_length);
  *out = std::move(req);
  return Result::kRequest;
}

void HttpParser::Reset() {
  buffer_.clear();
  error_ = Result::kNeedMore;
}

const char* HttpReasonPhrase(int status_code) {
  switch (status_code) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 413: return "Payload Too Large";
    case 431: return "Request Header Fields Too Large";
    case 503: return "Service Unavailable";
    default: return "Internal Server Error";
  }
}

void WriteHttpResponse(int status_code, const std::string& content_type,
                       const std::string& body, std::vector<uint8_t>* out) {
  std::string head = "HTTP/1.1 " + std::to_string(status_code) + " " +
                     HttpReasonPhrase(status_code) +
                     "\r\nContent-Type: " + content_type +
                     "\r\nContent-Length: " + std::to_string(body.size()) +
                     "\r\nConnection: keep-alive\r\n\r\n";
  out->insert(out->end(), head.begin(), head.end());
  out->insert(out->end(), body.begin(), body.end());
}

bool ExtractJsonNumber(const std::string& json, const std::string& key,
                       double* out) {
  const size_t pos = JsonValueStart(json, key);
  if (pos == std::string::npos) return false;
  char* end = nullptr;
  const double v = std::strtod(json.c_str() + pos, &end);
  if (end == json.c_str() + pos) return false;
  *out = v;
  return true;
}

bool ExtractJsonString(const std::string& json, const std::string& key,
                       std::string* out) {
  size_t pos = JsonValueStart(json, key);
  if (pos == std::string::npos || json[pos] != '"') return false;
  ++pos;
  std::string value;
  while (pos < json.size() && json[pos] != '"') {
    if (json[pos] == '\\' && pos + 1 < json.size() &&
        (json[pos + 1] == '"' || json[pos + 1] == '\\')) {
      ++pos;  // unescape \" and \\ — the two escapes JsonEscape produces
    }
    value += json[pos];
    ++pos;
  }
  if (pos >= json.size()) return false;  // unterminated string
  *out = std::move(value);
  return true;
}

Status DecodeHttpRouteQuery(const std::string& body, RouteQuery* out,
                            int* priority, std::string* tenant,
                            uint64_t* request_id) {
  double v = 0;
  if (!ExtractJsonNumber(body, "source", &v) ||
      !ExtractJsonNumber(body, "target", &v)) {
    return Status::InvalidArgument(
        "net: body must be JSON with numeric source/target");
  }
  TSDM_RETURN_IF_ERROR(ExtractJsonInteger(body, "source", &out->source));
  TSDM_RETURN_IF_ERROR(ExtractJsonInteger(body, "target", &out->target));
  TSDM_RETURN_IF_ERROR(ExtractJsonInteger(body, "k", &out->k));
  TSDM_RETURN_IF_ERROR(ExtractJsonInteger(body, "priority", priority));
  TSDM_RETURN_IF_ERROR(ExtractJsonInteger(body, "request_id", request_id));
  ExtractJsonNumber(body, "depart_seconds", &out->depart_seconds);
  ExtractJsonNumber(body, "arrival_deadline_seconds",
                    &out->arrival_deadline_seconds);
  ExtractJsonString(body, "tenant", tenant);
  return Status::OK();
}

void SplitTarget(const std::string& target, std::string* path,
                 std::string* query) {
  const size_t q = target.find('?');
  if (q == std::string::npos) {
    *path = target;
    query->clear();
    return;
  }
  *path = target.substr(0, q);
  *query = target.substr(q + 1);
}

QueryParamResult ParseQueryParamU64(const std::string& query,
                                    const std::string& key, uint64_t* out) {
  size_t pos = 0;
  while (pos <= query.size()) {
    size_t amp = query.find('&', pos);
    if (amp == std::string::npos) amp = query.size();
    const std::string pair = query.substr(pos, amp - pos);
    const size_t eq = pair.find('=');
    const std::string name = eq == std::string::npos ? pair : pair.substr(0, eq);
    if (name == key) {
      // "n" (no '=') and "n=" (empty value) are both missing-value shapes.
      if (eq == std::string::npos || eq + 1 >= pair.size()) {
        return QueryParamResult::kBad;
      }
      uint64_t value = 0;
      for (size_t i = eq + 1; i < pair.size(); ++i) {
        const char c = pair[i];
        if (c < '0' || c > '9') return QueryParamResult::kBad;
        const uint64_t digit = static_cast<uint64_t>(c - '0');
        if (value > (UINT64_MAX - digit) / 10) {
          return QueryParamResult::kBad;  // overflow
        }
        value = value * 10 + digit;
      }
      *out = value;
      return QueryParamResult::kOk;
    }
    pos = amp + 1;
  }
  return QueryParamResult::kAbsent;
}

}  // namespace tsdm
