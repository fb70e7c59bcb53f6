#include "nlp/lexicon.hpp"

#include <algorithm>
#include <initializer_list>
#include <unordered_map>
#include <unordered_set>

namespace vs2::nlp {

struct Lexicon::Impl {
  std::unordered_map<std::string, uint32_t> classes;  ///< word -> Class bits
  std::unordered_set<std::string> state_abbrevs;      ///< uppercase
  std::unordered_map<std::string, std::vector<std::string>> hypernyms;
  std::unordered_map<std::string, std::vector<std::string>> verb_senses;
  std::unordered_map<std::string, std::string> glosses;
};

namespace {

void AddWords(Lexicon::Impl* impl, uint32_t bit,
              std::initializer_list<const char*> words) {
  for (const char* w : words) impl->classes[w] |= bit;
}

Lexicon::Impl* BuildImpl() {
  auto* impl = new Lexicon::Impl();

  AddWords(impl, Lexicon::kFirstName, {
      "james",  "mary",    "robert",  "patricia", "john",    "jennifer",
      "michael", "linda",  "david",   "elizabeth", "william", "barbara",
      "richard", "susan",  "joseph",  "jessica",  "thomas",  "sarah",
      "charles", "karen",  "daniel",  "lisa",     "matthew", "nancy",
      "anthony", "betty",  "mark",    "margaret", "donald",  "sandra",
      "steven",  "ashley", "paul",    "kimberly", "andrew",  "emily",
      "joshua",  "donna",  "kenneth", "michelle", "kevin",   "dorothy",
      "brian",   "carol",  "george",  "amanda",   "edward",  "melissa",
      "ronald",  "deborah", "alice",  "ritesh",   "arnab",   "priya",
      "carlos",  "elena",  "miguel",  "sofia",    "chen",    "wei",
      "yuki",    "hana",   "omar",    "fatima",   "ivan",    "olga"});

  AddWords(impl, Lexicon::kLastName, {
      "smith",    "johnson",  "williams", "brown",   "jones",    "garcia",
      "miller",   "davis",    "rodriguez", "martinez", "hernandez", "lopez",
      "gonzalez", "wilson",   "anderson", "thomas",  "taylor",   "moore",
      "jackson",  "martin",   "lee",      "perez",   "thompson", "white",
      "harris",   "sanchez",  "clark",    "ramirez", "lewis",    "robinson",
      "walker",   "young",    "allen",    "king",    "wright",   "scott",
      "torres",   "nguyen",   "hill",     "flores",  "green",    "adams",
      "nelson",   "baker",    "hall",     "rivera",  "campbell", "mitchell",
      "carter",   "roberts",  "sarkhel",  "nandi",   "patel",    "kim",
      "chen",     "singh",    "kumar",    "gupta",   "tanaka",   "ali"});

  AddWords(impl, Lexicon::kOrganizationWord, {
      "university", "college",  "institute",  "department", "school",
      "society",    "club",     "association", "center",    "centre",
      "foundation", "committee", "council",    "laboratory", "museum",
      "library",    "church",   "ministry",    "agency",     "bureau",
      "realty",     "properties", "brokerage", "group",      "team",
      "friends",    "rotary",   "guild",       "collective", "chapter",
      "department", "university", "college",
      "company",    "enterprises", "holdings", "partners",   "studios",
      "theater",    "theatre",  "orchestra",   "ensemble",   "chapter"});

  AddWords(impl, Lexicon::kOrganizationSuffix, {
      "inc",  "llc", "ltd", "corp", "co",
      "llp",  "plc", "gmbh", "inc.", "llc.",
      "ltd.", "corp.", "co."});

  AddWords(impl, Lexicon::kPersonTitle, {
      "mr",  "mrs", "ms",  "dr",   "prof", "professor",
      "mr.", "mrs.", "ms.", "dr.", "prof.", "rev",
      "rev.", "sir", "madam", "capt", "capt."});

  AddWords(impl, Lexicon::kCity, {
      "columbus",   "cleveland", "cincinnati", "dayton",    "toledo",
      "akron",      "chicago",   "newyork",    "york",      "boston",
      "seattle",    "austin",    "denver",     "portland",  "atlanta",
      "miami",      "dallas",    "houston",    "phoenix",   "detroit",
      "pittsburgh", "baltimore", "philadelphia", "nashville", "memphis",
      "charlotte",  "raleigh",   "tampa",      "orlando",   "sacramento",
      "albany",     "buffalo",   "rochester",  "syracuse",  "madison",
      "milwaukee",  "minneapolis", "louisville", "lexington", "indianapolis",
      "springfield", "westerville", "dublin",  "hilliard",  "gahanna",
      "reynoldsburg", "grove",   "powell",     "delaware",  "newark"});

  AddWords(impl, Lexicon::kStateName, {
      "ohio",      "california", "texas",     "florida",   "illinois",
      "michigan",  "georgia",    "virginia",  "washington", "oregon",
      "colorado",  "arizona",    "nevada",    "utah",      "montana",
      "idaho",     "kansas",     "iowa",      "missouri",  "kentucky",
      "tennessee", "alabama",    "louisiana", "oklahoma",  "arkansas",
      "indiana",   "wisconsin",  "minnesota", "nebraska",  "maine",
      "vermont",   "delaware",   "maryland",  "pennsylvania", "connecticut",
      "massachusetts", "york"});

  impl->state_abbrevs = {"OH", "CA", "TX", "FL", "IL", "MI", "GA", "VA",
                         "WA", "OR", "CO", "AZ", "NV", "UT", "MT", "ID",
                         "KS", "IA", "MO", "KY", "TN", "AL", "LA", "OK",
                         "AR", "IN", "WI", "MN", "NE", "ME", "VT", "DE",
                         "MD", "PA", "CT", "MA", "NY", "NJ", "NC", "SC"};

  AddWords(impl, Lexicon::kStreetSuffix, {
      "street", "st",   "st.",  "avenue", "ave",  "ave.", "road",  "rd",
      "rd.",    "drive", "dr",  "dr.",    "lane", "ln",   "ln.",   "boulevard",
      "blvd",   "blvd.", "court", "ct",   "ct.",  "place", "pl",   "pl.",
      "circle", "cir",  "cir.", "way",    "parkway", "pkwy", "pkwy.",
      "highway", "hwy", "hwy.", "terrace", "ter",  "ter.", "trail", "trl",
      "suite",  "ste",  "ste.", "floor",  "fl.",  "unit", "apt",   "apt."});

  AddWords(impl, Lexicon::kMonth, {
      "january", "february", "march",    "april",   "may",
      "june",    "july",     "august",   "september", "october",
      "november", "december", "jan",     "feb",     "mar",
      "apr",     "jun",      "jul",      "aug",     "sep",
      "sept",    "oct",      "nov",      "dec"});

  AddWords(impl, Lexicon::kWeekday, {
      "monday", "tuesday", "wednesday", "thursday", "friday",
      "saturday", "sunday", "mon",      "tue",      "tues",
      "wed",    "thu",     "thur",      "thurs",    "fri",
      "sat",    "sun"});

  AddWords(impl, Lexicon::kTimeWord, {
      "am",   "pm",    "a.m",  "p.m",  "a.m.", "p.m.",
      "noon", "midnight", "morning", "afternoon", "evening",
      "night", "oclock", "o'clock", "doors", "sharp",
      "today", "tomorrow", "tonight", "weekly", "daily"});

  AddWords(impl, Lexicon::kCommonNoun, {
      "event",    "workshop", "seminar",  "lecture", "concert",  "festival",
      "class",    "course",   "meeting",  "talk",    "conference", "session",
      "fair",     "gala",     "fundraiser", "party", "show",     "exhibition",
      "poster",   "flyer",    "ticket",   "admission", "registration",
      "property", "house",    "home",     "apartment", "condo",  "building",
      "land",     "lot",      "acre",     "acres",   "bed",      "beds",
      "bedroom",  "bedrooms", "bath",     "baths",   "bathroom", "bathrooms",
      "garage",   "parking",  "grocery",  "kitchen", "basement", "backyard",
      "listing",  "price",    "sale",     "rent",    "broker",   "agent",
      "owner",    "office",   "space",    "warehouse", "retail", "restaurant",
      "music",    "dance",    "art",      "food",    "drinks",   "speaker",
      "topic",    "scope",    "time",     "date",    "place",    "venue",
      "hall",     "room",     "auditorium", "stadium", "park",   "garden",
      "income",   "tax",      "form",     "wages",   "salary",   "interest",
      "dividends", "refund",  "deduction", "exemption", "credit", "amount",
      "name",     "address",  "city",     "state",   "zip",      "phone",
      "email",    "contact",  "number",   "line",    "page",     "schedule",
      "details",  "info",     "information", "welcome", "community",
      "students", "children", "adults",   "families", "members", "guest",
      "guests",   "sqft",     "feet",     "foot",    "floors",   "story",
      "stories",  "year",     "years",    "month",   "day",      "week"});

  AddWords(impl, Lexicon::kVerb, {
      "join",     "come",    "attend",  "learn",   "discover", "explore",
      "enjoy",    "celebrate", "meet",  "bring",   "host",     "hosts",
      "hosted",   "hosting", "present", "presents", "presented", "presenting",
      "organize", "organizes", "organized", "organizing", "sponsor",
      "sponsors", "sponsored", "feature", "features", "featured", "featuring",
      "offer",    "offers",  "offered", "include", "includes", "included",
      "call",     "contact", "visit",   "register", "rsvp",    "buy",
      "sell",     "list",    "listed",  "lists",   "sale",     "lease",
      "rent",     "own",     "owned",   "build",   "built",    "locate",
      "located",  "sit",     "sits",    "situated", "nestled", "live",
      "enter",    "file",    "report",  "add",     "subtract", "multiply",
      "check",    "sign",    "attach",  "complete", "begin",   "start",
      "starts",   "end",     "ends",    "run",     "runs",     "perform",
      "performs", "performed", "create", "created", "creates", "direct",
      "directed", "lead",    "leads",   "led",     "teach",    "taught",
      "speak",    "speaks",  "is",      "are",     "was",      "were",
      "be",       "been",    "has",     "have",    "had",      "do",
      "does",     "did",     "get",     "make",    "see",      "go",
      "welcome",  "invite",  "invites", "invited", "curated",  "curates"});

  AddWords(impl, Lexicon::kAdjective, {
      "free",      "open",     "public",   "private",  "annual",  "monthly",
      "weekly",    "special",  "grand",    "new",      "live",    "local",
      "great",     "amazing",  "exciting", "spacious", "beautiful",
      "charming",  "stunning", "modern",   "updated",  "renovated",
      "commercial", "residential", "industrial", "available", "prime",
      "spectacular", "cozy",   "bright",   "large",    "small",   "huge",
      "total",     "taxable",  "gross",    "net",      "federal", "single",
      "married",   "joint",    "estimated", "additional", "itemized",
      "academic",  "introductory", "advanced", "beginner", "friendly",
      "fall",      "spring",   "summer",   "winter",   "monthly",  "midnight",
      "central",   "downtown", "historic", "quiet",    "walkable", "detached",
      "finished",  "attached", "hardwood", "granite",  "stainless", "vaulted"});

  AddWords(impl, Lexicon::kAdverb, {
      "now",    "today",  "here",   "there",  "very",
      "newly",  "fully",  "soon",   "only",   "just",
      "ideally", "conveniently", "beautifully", "recently",
      "completely", "approximately", "nearly", "about"});

  AddWords(impl, Lexicon::kDeterminer, {
      "the", "a", "an", "this", "that", "these", "those",
      "all", "every", "each", "some", "any", "no", "our",
      "your", "its", "their", "his", "her", "my"});

  AddWords(impl, Lexicon::kPreposition, {
      "in",   "on",   "at",   "by",    "for",  "with",
      "from", "to",   "of",   "about", "near", "off",
      "over", "under", "into", "through", "during",
      "per",  "via",  "within", "between", "behind"});

  AddWords(impl, Lexicon::kConjunction, {
      "and", "or", "but", "nor", "so", "yet", "&"});

  AddWords(impl, Lexicon::kPronoun, {
      "i",   "you", "he",  "she", "it", "we", "they", "us",
      "them", "who", "what", "which"});

  AddWords(impl, Lexicon::kModal, {
      "will", "would", "can", "could", "may", "might", "shall",
      "should", "must"});

  AddWords(impl, Lexicon::kStopword, {
      "the",  "a",    "an",  "and", "or",   "but", "of",  "in",  "on",
      "at",   "by",   "for", "with", "from", "to",  "is",  "are", "was",
      "were", "be",   "been", "has", "have", "had", "do",  "does", "did",
      "this", "that", "these", "those", "it", "its", "as", "if",  "so",
      "than", "then", "there", "here", "all", "any", "each", "our", "your",
      "their", "his", "her",  "we",  "you", "they", "i",  "not", "no",
      "will", "would", "can", "could"});

  impl->hypernyms = {
      // measure sense (Table 4: Property Size)
      {"acre", {"area_unit", "measure"}},
      {"acres", {"area_unit", "measure"}},
      {"sqft", {"area_unit", "measure"}},
      {"feet", {"linear_unit", "measure"}},
      {"foot", {"linear_unit", "measure"}},
      {"mile", {"linear_unit", "measure"}},
      {"miles", {"linear_unit", "measure"}},
      {"bed", {"furniture", "structure_part", "measure"}},
      {"beds", {"furniture", "structure_part", "measure"}},
      {"bedroom", {"room", "structure_part", "measure"}},
      {"bedrooms", {"room", "structure_part", "measure"}},
      {"bath", {"room", "structure_part", "measure"}},
      {"baths", {"room", "structure_part", "measure"}},
      {"bathroom", {"room", "structure_part", "measure"}},
      {"bathrooms", {"room", "structure_part", "measure"}},
      {"story", {"level", "structure_part", "measure"}},
      {"stories", {"level", "structure_part", "measure"}},
      // structure sense
      {"building", {"construction", "structure"}},
      {"house", {"dwelling", "structure", "estate"}},
      {"home", {"dwelling", "structure", "estate"}},
      {"apartment", {"dwelling", "structure", "estate"}},
      {"condo", {"dwelling", "structure", "estate"}},
      {"garage", {"outbuilding", "structure"}},
      {"warehouse", {"construction", "structure"}},
      {"office", {"construction", "structure"}},
      {"floor", {"level", "structure_part"}},
      {"floors", {"level", "structure_part"}},
      {"basement", {"room", "structure_part"}},
      {"kitchen", {"room", "structure_part"}},
      // estate sense
      {"property", {"possession", "estate"}},
      {"land", {"real_property", "estate"}},
      {"lot", {"parcel", "real_property", "estate"}},
      {"listing", {"record", "estate"}},
      {"parcel", {"real_property", "estate"}},
      // event-domain nouns (used for coherence, not extraction)
      {"concert", {"performance", "social_event", "event"}},
      {"festival", {"celebration", "social_event", "event"}},
      {"workshop", {"class", "education_event", "event"}},
      {"seminar", {"class", "education_event", "event"}},
      {"lecture", {"speech", "education_event", "event"}},
      {"class", {"education_event", "event"}},
      {"meeting", {"gathering", "event"}},
      {"gala", {"celebration", "social_event", "event"}},
      {"fundraiser", {"campaign", "social_event", "event"}},
      {"fair", {"exhibition", "social_event", "event"}},
      {"show", {"performance", "social_event", "event"}},
      {"party", {"celebration", "social_event", "event"}},
      {"exhibition", {"show", "social_event", "event"}},
      {"conference", {"meeting", "education_event", "event"}},
      {"session", {"meeting", "event"}},
      // tax-domain
      {"wages", {"income", "money"}},
      {"salary", {"income", "money"}},
      {"interest", {"income", "money"}},
      {"dividends", {"income", "money"}},
      {"refund", {"payment", "money"}},
      {"tax", {"levy", "money"}},
      {"income", {"money"}},
      {"deduction", {"reduction", "money"}},
      {"credit", {"reduction", "money"}},
  };

  impl->verb_senses = {
      // captain class: leading/being responsible for (VerbNet 29.8)
      {"host", {"captain"}},
      {"hosts", {"captain"}},
      {"hosted", {"captain"}},
      {"hosting", {"captain"}},
      {"organize", {"captain", "create"}},
      {"organizes", {"captain", "create"}},
      {"organized", {"captain", "create"}},
      {"organizing", {"captain", "create"}},
      {"direct", {"captain"}},
      {"directed", {"captain"}},
      {"lead", {"captain"}},
      {"leads", {"captain"}},
      {"led", {"captain"}},
      {"chair", {"captain"}},
      {"chaired", {"captain"}},
      {"sponsor", {"captain"}},
      {"sponsors", {"captain"}},
      {"sponsored", {"captain"}},
      // create class (VerbNet 26.4)
      {"create", {"create"}},
      {"creates", {"create"}},
      {"created", {"create"}},
      {"produce", {"create"}},
      {"produced", {"create"}},
      {"curate", {"create"}},
      {"curated", {"create"}},
      {"curates", {"create"}},
      {"present", {"create", "reflexive_appearance"}},
      {"presents", {"create", "reflexive_appearance"}},
      {"presented", {"create", "reflexive_appearance"}},
      {"presenting", {"create", "reflexive_appearance"}},
      // reflexive_appearance class (VerbNet 48.1.2)
      {"appear", {"reflexive_appearance"}},
      {"appears", {"reflexive_appearance"}},
      {"feature", {"reflexive_appearance"}},
      {"features", {"reflexive_appearance"}},
      {"featured", {"reflexive_appearance"}},
      {"featuring", {"reflexive_appearance"}},
      {"perform", {"reflexive_appearance"}},
      {"performs", {"reflexive_appearance"}},
      {"performed", {"reflexive_appearance"}},
      // misc senses used in glosses / coherence
      {"join", {"social"}},
      {"attend", {"social"}},
      {"celebrate", {"social"}},
      {"meet", {"social"}},
      {"list", {"record"}},
      {"listed", {"record"}},
      {"sell", {"exchange"}},
      {"buy", {"exchange"}},
      {"rent", {"exchange"}},
      {"lease", {"exchange"}},
      {"call", {"communicate"}},
      {"contact", {"communicate"}},
      {"email", {"communicate"}},
  };

  impl->glosses = {
      {"event", "a social occasion gathering people at a time and place"},
      {"organizer", "a person or organization responsible for arranging an event"},
      {"host", "a person or organization that arranges and leads an event"},
      {"time", "the hour and date at which something happens"},
      {"place", "the location venue or address where something happens"},
      {"title", "the short name or heading describing something"},
      {"broker", "an agent person who arranges sales of property"},
      {"property", "land building or real estate that is owned"},
      {"address", "the street city and state locating a building"},
      {"phone", "a number used to call a person"},
      {"email", "an electronic address used to message a person"},
      {"size", "the measured extent area or count of rooms of a property"},
      {"description", "details and essential information about something"},
      {"name", "the word by which a person or organization is known"},
      {"wages", "money income earned from employment"},
      {"tax", "money levy paid to the government on income"},
      {"concert", "a live music performance event"},
      {"festival", "a celebration event with food music and community"},
      {"workshop", "a class event teaching a practical topic"},
      {"house", "a building structure where people live"},
      {"lecture", "a talk event by a speaker on a topic"},
  };

  return impl;
}

}  // namespace

Lexicon::Lexicon() : impl_(BuildImpl()) {}

const Lexicon& Lexicon::Get() {
  static Lexicon instance;
  return instance;
}


uint32_t Lexicon::Classes(const std::string& w) const {
  auto it = impl_->classes.find(w);
  return it == impl_->classes.end() ? 0 : it->second;
}

std::vector<std::string> Lexicon::Words() const {
  std::vector<std::string> words;
  words.reserve(impl_->classes.size());
  for (const auto& [word, bits] : impl_->classes) words.push_back(word);
  std::sort(words.begin(), words.end());
  return words;
}

bool Lexicon::IsFirstName(const std::string& w) const { return (Classes(w) & kFirstName) != 0; }
bool Lexicon::IsLastName(const std::string& w) const { return (Classes(w) & kLastName) != 0; }
bool Lexicon::IsOrganizationWord(const std::string& w) const { return (Classes(w) & kOrganizationWord) != 0; }
bool Lexicon::IsOrganizationSuffix(const std::string& w) const { return (Classes(w) & kOrganizationSuffix) != 0; }
bool Lexicon::IsPersonTitle(const std::string& w) const { return (Classes(w) & kPersonTitle) != 0; }
bool Lexicon::IsCity(const std::string& w) const { return (Classes(w) & kCity) != 0; }
bool Lexicon::IsStateName(const std::string& w) const { return (Classes(w) & kStateName) != 0; }
bool Lexicon::IsStreetSuffix(const std::string& w) const { return (Classes(w) & kStreetSuffix) != 0; }
bool Lexicon::IsMonth(const std::string& w) const { return (Classes(w) & kMonth) != 0; }
bool Lexicon::IsWeekday(const std::string& w) const { return (Classes(w) & kWeekday) != 0; }
bool Lexicon::IsTimeWord(const std::string& w) const { return (Classes(w) & kTimeWord) != 0; }
bool Lexicon::IsCommonNoun(const std::string& w) const { return (Classes(w) & kCommonNoun) != 0; }
bool Lexicon::IsVerb(const std::string& w) const { return (Classes(w) & kVerb) != 0; }
bool Lexicon::IsAdjective(const std::string& w) const { return (Classes(w) & kAdjective) != 0; }
bool Lexicon::IsAdverb(const std::string& w) const { return (Classes(w) & kAdverb) != 0; }
bool Lexicon::IsDeterminer(const std::string& w) const { return (Classes(w) & kDeterminer) != 0; }
bool Lexicon::IsPreposition(const std::string& w) const { return (Classes(w) & kPreposition) != 0; }
bool Lexicon::IsConjunction(const std::string& w) const { return (Classes(w) & kConjunction) != 0; }
bool Lexicon::IsPronoun(const std::string& w) const { return (Classes(w) & kPronoun) != 0; }
bool Lexicon::IsModal(const std::string& w) const { return (Classes(w) & kModal) != 0; }
bool Lexicon::IsStopword(const std::string& w) const { return (Classes(w) & kStopword) != 0; }
bool Lexicon::IsStateAbbrev(const std::string& w) const { return impl_->state_abbrevs.count(w) > 0; }

const std::vector<std::string>& Lexicon::Hypernyms(const std::string& w) const {
  static const std::vector<std::string> kEmpty;
  auto it = impl_->hypernyms.find(w);
  return it == impl_->hypernyms.end() ? kEmpty : it->second;
}

const std::vector<std::string>& Lexicon::VerbSenses(const std::string& w) const {
  static const std::vector<std::string> kEmpty;
  auto it = impl_->verb_senses.find(w);
  return it == impl_->verb_senses.end() ? kEmpty : it->second;
}

const std::string& Lexicon::Gloss(const std::string& w) const {
  static const std::string kEmpty;
  auto it = impl_->glosses.find(w);
  return it == impl_->glosses.end() ? kEmpty : it->second;
}

}  // namespace vs2::nlp
