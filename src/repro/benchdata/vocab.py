"""Clean-value vocabularies for the benchmark generators.

Entity names are composed from :data:`repro.llm.knowledge.DICTIONARY`
words plus proper-noun pools kept deliberately >1 edit away from
dictionary words — real datasets contain real-world vocabulary a real
LLM knows, and rare legitimate values must not look like typos.
"""
from __future__ import annotations

import numpy as np

HOSPITAL_NAME_PARTS = (
    ("Saint", "North", "South", "East", "West", "Valley", "Lake", "Grove",
     "Spring", "Memorial", "Regional", "Community", "Baptist", "University"),
    ("Medical Center", "General Hospital", "Community Hospital",
     "Regional Medical Center", "Memorial Hospital", "Heart Center"),
)

STREETS = ("Main Street", "Oak Avenue", "Church Road", "Park Drive",
           "Maple Boulevard", "River Road", "Hill Street", "Lake Avenue",
           "Pine Street", "Cedar Avenue")

MEASURES = tuple(
    (f"{code}-{i}", f"{cond} measure {i}")
    for code, cond in (("AMI", "Heart Attack"), ("HF", "Heart Failure"),
                       ("PN", "Pneumonia"), ("SCIP", "Surgical Infection Prevention"),
                       ("ED", "Emergency Care"), ("STK", "Stroke Care"))
    for i in range(1, 4)
)  # 18 measures

HOSPITAL_TYPES = ("Acute Care Hospitals", "Critical Access Hospitals",
                  "Childrens Hospitals")
HOSPITAL_OWNERS = ("Government - State", "Government - Local", "Proprietary",
                   "Voluntary non-profit - Private", "Voluntary non-profit - Church")
REGIONS = ("Southeast", "Northeast", "Midwest", "Southwest", "Pacific")

CARRIERS = ("AA", "UA", "DL", "WN", "B6", "AS")
AIRPORTS = ("ORD", "PHX", "LAX", "JFK", "ATL", "DEN", "SEA", "MIA", "BOS",
            "DFW", "SFO", "IAD")
FLIGHT_SOURCES = ("aa", "airtravelcenter", "boston", "flightview",
                  "flightaware", "orbitz", "quicktrip", "mytripandmore",
                  "travelocity", "flylouisville", "iad", "panynj")

BEER_STYLES = ("India Pale Ale", "Imperial Stout", "Amber Ale", "Pale Lager",
               "Wheat Ale", "Brown Porter", "Double India Pale Ale",
               "Session Ale", "Blonde Ale", "Pilsner", "Brown Ale",
               "Golden Ale", "Imperial Porter", "Amber Lager", "Craft Stout")
BEER_NAME_WORDS = ("Golden", "Crimson", "Midnight", "Thunder", "Winter",
                   "Summer", "River", "Storm", "Shadow", "Harbor", "Eternal",
                   "Hidden", "Broken", "Silent", "Night", "Garden")
BEER_NAME_KINDS = ("Ale", "Stout", "Porter", "Lager", "Pilsner", "IPA")
BREWERY_WORDS = ("Thunder", "River", "Valley", "Harbor", "Storm", "Grove",
                 "Summit", "Canyon", "Prairie", "Ridge", "Meadow", "Quarry",
                 "Anvil", "Beacon", "Copper", "Granite", "Juniper", "Lantern")
BREWERY_SUFFIXES = ("Brewing Company", "Brewery", "Craft Works", "Beer House")
BREWERY_TYPES = ("micro", "regional", "brewpub", "contract")

JOURNALS = tuple(
    (f"{a} Journal of {b}", f"{abbr} J. {babbr}.")
    for (a, abbr) in (("American", "Am."), ("European", "Eur."),
                      ("International", "Int."), ("Global", "Glob."),
                      ("Quarterly", "Q."))
    for (b, babbr) in (("Medicine", "Med"), ("Clinical Research", "Clin. Res"),
                       ("Public Health", "Pub. Health"),
                       ("Cardiac Surgery", "Card. Surg"),
                       ("Pediatric Care", "Ped. Care"))
)  # 25 journals

TITLE_WORDS = ("randomized", "controlled", "trial", "systematic", "review",
               "clinical", "treatment", "therapy", "cancer", "diabetes",
               "cardiac", "vaccine", "infection", "chronic", "outcomes",
               "cohort", "screening", "intervention", "placebo", "efficacy",
               "safety", "pediatric", "surgical", "hypertension", "disease")

MOVIE_WORDS = ("Shadow", "River", "Night", "Garden", "Silent", "Broken",
               "Golden", "Winter", "Summer", "Letters", "Return", "Secret",
               "Stolen", "Dreams", "Storm", "Empire", "Voyage", "Legacy",
               "Crimson", "Hidden", "Kingdom", "Midnight", "Forgotten",
               "Eternal", "Paradise", "Thunder", "Horizon", "Destiny",
               "Whisper", "Fortune", "Courage", "Journey", "Mirror",
               "Island", "Castle", "Harbor", "Memory", "Justice", "Freedom",
               "Voyagers")

FIRST_NAMES = ("Robert", "Maria", "David", "Elena", "Thomas", "Sofia",
               "Daniel", "Laura", "Martin", "Clara", "Victor", "Irene",
               "Hugo", "Alice", "Felix", "Nora", "Oscar", "Vera", "Leon",
               "Julia", "Pavel", "Anna", "Marco", "Lena", "Bruno")
LAST_NAMES = ("Almeida", "Bergstrom", "Castellano", "Dvorak", "Eriksen",
              "Fontaine", "Grigoriev", "Hoffmann", "Iwamura", "Jankovic",
              "Kowalski", "Lindqvist", "Moretti", "Nakamura", "Olausson",
              "Petrov", "Quintana", "Rossellini", "Svensson", "Takahashi",
              "Uddin", "Vasquez", "Wagner", "Xanthos", "Yamamoto", "Zielinski")

GENRES = ("Drama", "Comedy", "Thriller", "Action", "Romance", "Horror",
          "Documentary", "Animation", "Crime", "Adventure")
MPAA = ("G", "PG", "PG-13", "R", "NC-17", "NOT RATED")
STUDIOS = ("Northlight Pictures", "Bluestone Films", "Silverline Studios",
           "Redwood Entertainment", "Irongate Productions",
           "Clearwater Media", "Stonebridge Films", "Lakeshore Pictures")


def person_name(rng: np.random.Generator) -> str:
    return f"{rng.choice(FIRST_NAMES)} {rng.choice(LAST_NAMES)}"
