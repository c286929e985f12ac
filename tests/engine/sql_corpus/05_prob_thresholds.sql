SELECT rid FROM readings WHERE PROB(value > 15) >= 0.5;
SELECT rid FROM readings WHERE PROB(value > 18 AND value < 22) > 0.3;
SELECT rid FROM readings WHERE PROB(*) >= 1;
SELECT rid FROM readings WHERE value > 18 ORDER BY PROB(*) DESC LIMIT 2;
-- one Filter: a value conjunct floors, then a PROB term and PROB(*) measure the floored row
SELECT rid, value FROM readings WHERE value > 5 AND PROB(value < 15) >= 0.3 AND PROB(*) > 0.5;
SELECT rid FROM readings WHERE value > 5 ORDER BY PROB(*) ASC LIMIT 2 OFFSET 1;
