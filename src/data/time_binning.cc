#include "data/time_binning.h"

namespace tcss {
namespace {

// Days from 1970-01-01 to year-month-day (Howard Hinnant's algorithms).
int64_t DaysFromCivil(int y, int m, int d) {
  y -= m <= 2;
  const int64_t era = (y >= 0 ? y : y - 399) / 400;
  const unsigned yoe = static_cast<unsigned>(y - era * 400);       // [0,399]
  const unsigned doy =
      (153u * static_cast<unsigned>(m + (m > 2 ? -3 : 9)) + 2u) / 5u +
      static_cast<unsigned>(d) - 1u;                               // [0,365]
  const unsigned doe = yoe * 365u + yoe / 4u - yoe / 100u + doy;   // [0,146096]
  return era * 146097 + static_cast<int64_t>(doe) - 719468;
}

// The civil-from-days core: day z since 1970-01-01 as a year that starts
// on March 1 and the day within it (0 = March 1; January 1 of the next
// civil year is day 306).
void MarchYearFromDays(int64_t z, int64_t* yr, unsigned* doy) {
  z += 719468;
  const int64_t era = (z >= 0 ? z : z - 146096) / 146097;
  const unsigned doe = static_cast<unsigned>(z - era * 146097);  // [0,146096]
  const unsigned yoe =
      (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;     // [0,399]
  *yr = static_cast<int64_t>(yoe) + era * 400;
  *doy = doe - (365 * yoe + yoe / 4 - yoe / 100);                // [0,365]
}

// Month of a March-year day: 0 = March ... 11 = February.
unsigned MarchMonth(unsigned doy) { return (5 * doy + 2) / 153; }

void CivilFromDays(int64_t z, int* y, unsigned* m, unsigned* d) {
  int64_t yr;
  unsigned doy;
  MarchYearFromDays(z, &yr, &doy);
  const unsigned mp = MarchMonth(doy);
  *d = doy - (153 * mp + 2) / 5 + 1;                             // [1,31]
  *m = mp + (mp < 10 ? 3 : -9);                                  // [1,12]
  *y = static_cast<int>(yr + (*m <= 2));
}

bool IsLeap(int64_t y) {
  return (y % 4 == 0 && y % 100 != 0) || y % 400 == 0;
}

int DayOfYear(int y, int m, int d) {
  static const int kCum[12] = {0,   31,  59,  90,  120, 151,
                               181, 212, 243, 273, 304, 334};
  int doy = kCum[m - 1] + d - 1;
  if (m > 2 && IsLeap(y)) ++doy;
  return doy;
}

// Floor division/modulo for possibly-negative timestamps.
int64_t FloorDiv(int64_t a, int64_t b) {
  int64_t q = a / b;
  if ((a % b != 0) && ((a < 0) != (b < 0))) --q;
  return q;
}

}  // namespace

size_t NumBins(TimeGranularity g) {
  switch (g) {
    case TimeGranularity::kMonthOfYear:
      return 12;
    case TimeGranularity::kWeekOfYear:
      return 53;
    case TimeGranularity::kHourOfDay:
      return 24;
  }
  return 12;
}

const char* GranularityName(TimeGranularity g) {
  switch (g) {
    case TimeGranularity::kMonthOfYear:
      return "month";
    case TimeGranularity::kWeekOfYear:
      return "week";
    case TimeGranularity::kHourOfDay:
      return "hour";
  }
  return "?";
}

CivilTime ToCivil(int64_t unix_seconds) {
  const int64_t days = FloorDiv(unix_seconds, 86400);
  int64_t secs = unix_seconds - days * 86400;  // [0, 86399]
  CivilTime c;
  unsigned m, d;
  CivilFromDays(days, &c.year, &m, &d);
  c.month = static_cast<int>(m);
  c.day = static_cast<int>(d);
  c.hour = static_cast<int>(secs / 3600);
  secs %= 3600;
  c.minute = static_cast<int>(secs / 60);
  c.second = static_cast<int>(secs % 60);
  c.day_of_year = DayOfYear(c.year, c.month, c.day);
  return c;
}

int64_t FromCivil(int year, int month, int day, int hour, int minute,
                  int second) {
  return DaysFromCivil(year, month, day) * 86400 + hour * 3600 + minute * 60 +
         second;
}

// Each granularity derives only its own field: the bins are those of
// ToCivil's month - 1, day_of_year / 7 and hour.
uint32_t TimeBin(int64_t unix_seconds, TimeGranularity g) {
  const int64_t days = FloorDiv(unix_seconds, 86400);
  if (g == TimeGranularity::kHourOfDay) {
    return static_cast<uint32_t>((unix_seconds - days * 86400) / 3600);
  }
  int64_t yr;
  unsigned doy;
  MarchYearFromDays(days, &yr, &doy);
  if (g == TimeGranularity::kMonthOfYear) {
    const unsigned mp = MarchMonth(doy);
    return mp < 10 ? mp + 2 : mp - 10;
  }
  // Week: the day of the civil year. March-year days from 306 on are
  // January and February of year yr + 1; the days before are March to
  // December of year yr, after its 59 (leap: 60) days of January and
  // February.
  const unsigned day_of_year = doy >= 306 ? doy - 306 : doy + 59 + IsLeap(yr);
  return day_of_year / 7;
}

}  // namespace tcss
